"""Byte identity of the LCC, CDLP and SSSP kernels against scalar oracles.

``oracles.py`` keeps the per-vertex LCC loop, heapq Dijkstra and the
two-lexsort label histogram. The whole-array kernels must return the
same bytes (dtype, shape and values) on degenerate random graphs — self-
loops, isolated vertices with sparse ids, tied and zero weights — and on
the miniature datasets the benchmark runs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.cdlp import _most_frequent_min_label, community_detection_lp
from repro.algorithms.lcc import local_clustering_coefficient
from repro.algorithms.sssp import single_source_shortest_paths
from repro.harness.datasets import get_dataset
from tests.algorithms.oracles import (
    cdlp_external_labels,
    lcc_per_vertex,
    most_frequent_min_label_lexsort,
    sssp_dijkstra,
)
from tests.algorithms.test_properties import random_graphs

MINIATURES = ["G23", "D300", "G24", "D1000", "R4"]
WEIGHTED_MINIATURES = ["D300", "D1000", "R4"]


def _same_bytes(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module", params=MINIATURES)
def miniature(request):
    return get_dataset(request.param).materialize()


@pytest.mark.parametrize("directed", [False, True])
class TestRandomGraphs:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_lcc(self, directed, data):
        graph = data.draw(random_graphs(directed=directed, degenerate=True))
        _same_bytes(local_clustering_coefficient(graph), lcc_per_vertex(graph))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_lcc_vertex_subset(self, directed, data):
        graph = data.draw(random_graphs(directed=directed, degenerate=True))
        subset = data.draw(st.lists(
            st.integers(0, graph.num_vertices - 1), unique=True
        ))
        _same_bytes(
            local_clustering_coefficient(graph, vertices=subset),
            lcc_per_vertex(graph, vertices=subset),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), iterations=st.integers(0, 12))
    def test_cdlp(self, directed, data, iterations):
        graph = data.draw(random_graphs(directed=directed, degenerate=True))
        _same_bytes(
            community_detection_lp(graph, iterations=iterations),
            cdlp_external_labels(graph, iterations),
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_sssp(self, directed, data):
        graph = data.draw(random_graphs(
            directed=directed, weighted=True, degenerate=True
        ))
        source = int(data.draw(st.sampled_from(graph.vertex_ids.tolist())))
        _same_bytes(
            single_source_shortest_paths(graph, source),
            sssp_dijkstra(graph, source),
        )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 12),
    num_labels=st.integers(1, 12),
    data=st.data(),
)
def test_most_frequent_min_label(n, num_labels, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, num_labels - 1)),
        max_size=60,
    ))
    receivers = np.array([r for r, _ in pairs], dtype=np.int64)
    labels = np.array([label for _, label in pairs], dtype=np.int64)
    _same_bytes(
        _most_frequent_min_label(n, receivers, labels, num_labels),
        most_frequent_min_label_lexsort(n, receivers, labels),
    )


class TestMiniatures:
    def test_lcc(self, miniature):
        _same_bytes(
            local_clustering_coefficient(miniature), lcc_per_vertex(miniature)
        )

    def test_lcc_vertex_subset(self, miniature):
        odd = np.arange(1, miniature.num_vertices, 2)
        _same_bytes(
            local_clustering_coefficient(miniature, vertices=odd),
            lcc_per_vertex(miniature, vertices=odd),
        )

    def test_cdlp(self, miniature):
        _same_bytes(
            community_detection_lp(miniature, iterations=10),
            cdlp_external_labels(miniature, 10),
        )

    @pytest.mark.parametrize("name", WEIGHTED_MINIATURES)
    def test_sssp(self, name):
        dataset = get_dataset(name)
        graph = dataset.materialize()
        source = int(dataset.algorithm_parameters("sssp")["source_vertex"])
        _same_bytes(
            single_source_shortest_paths(graph, source),
            sssp_dijkstra(graph, source),
        )


@pytest.mark.parametrize("name", ["G24", "R4"])
def test_lcc_scratch_memory_is_bounded(name):
    """LCC tests its wedges in fixed blocks: the peak stays a few MiB.

    Testing every wedge at once peaks around 22 MB on G24.
    """
    graph = get_dataset(name).materialize()
    tracemalloc.start()
    try:
        local_clustering_coefficient(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
