"""Wall-clock benchmarks of the reference algorithm kernels.

These time the *real* execution of the six reference implementations —
the numbers every simulated platform's "measured" column is built from.
BFS, PageRank, WCC, CDLP and LCC run on the G24 miniature (the largest
unweighted miniature the baseline experiments exercise, and the
costliest LCC input of the report matrix); SSSP needs weights and runs
on the R4 miniature.

Run with ``python -m pytest benchmarks/bench_kernels.py``; add
``--benchmark-disable`` to run each kernel once and check its output.
"""

import pytest

from repro.algorithms.bfs import breadth_first_search
from repro.algorithms.cdlp import community_detection_lp
from repro.algorithms.lcc import local_clustering_coefficient
from repro.algorithms.pagerank import pagerank
from repro.algorithms.sssp import single_source_shortest_paths
from repro.algorithms.wcc import weakly_connected_components
from repro.harness.datasets import get_dataset


@pytest.fixture(scope="module")
def g24():
    return get_dataset("G24").materialize()


@pytest.fixture(scope="module")
def weighted_mini():
    return get_dataset("R4").materialize()


@pytest.fixture(scope="module")
def source(g24):
    return int(get_dataset("G24").algorithm_parameters("bfs")["source_vertex"])


def test_kernel_bfs(benchmark, g24, source):
    depths = benchmark(breadth_first_search, g24, source)
    assert depths[g24.index_of(source)] == 0


def test_kernel_pagerank(benchmark, g24):
    ranks = benchmark(pagerank, g24, iterations=30)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-9)


def test_kernel_wcc(benchmark, g24):
    labels = benchmark(weakly_connected_components, g24)
    assert len(labels) == g24.num_vertices


def test_kernel_cdlp(benchmark, g24):
    labels = benchmark(community_detection_lp, g24, iterations=10)
    assert len(labels) == g24.num_vertices


def test_kernel_lcc(benchmark, g24):
    values = benchmark(local_clustering_coefficient, g24)
    assert values.max() <= 1.0


def test_kernel_sssp(benchmark, weighted_mini):
    dataset = get_dataset("R4")
    src = int(dataset.algorithm_parameters("sssp")["source_vertex"])
    dist = benchmark(single_source_shortest_paths, weighted_mini, src)
    assert dist[weighted_mini.index_of(src)] == 0.0
