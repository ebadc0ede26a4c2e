"""Parity oracle for the sharded engine.

The partitioned engine's core contract: for every core algorithm, ANY
shard count, either partitioning strategy, and either transport, the
output is **byte-identical** (through the canonical output codec) to
the reference kernel, :func:`repro.algorithms.run_reference`. This
suite is the oracle:

* the full matrix — six algorithms x miniature graphs x shard counts
  {1,2,3,4} x both strategies — on the inline transport;
* a real-process subset on the pipes transport;
* a hypothesis differential suite on random and degenerate graphs
  (self-loops, isolated vertices, tied and zero weights, more shards
  than vertices);
* partitioner invariants on seeded random graphs (every vertex owned
  exactly once, every cut edge mirrored on both sides, shard sizes
  within the strategy's balance bound);
* the reference kernels' input errors, raised with the same types;
* chaos: a shard SIGKILLed mid-superstep is relaunched by the
  supervisor and the run still completes bit-identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import run_reference
from repro.algorithms.output_io import write_output
from repro.engines.partitioned import (
    PARTITION_STRATEGIES,
    STEP_FAULT_POINT,
    PartitionedEngine,
    partition_graph,
    run_algorithm,
)
from repro.exceptions import ConfigurationError, GenerationError, GraphFormatError
from repro.graph.graph import Graph

from tests.algorithms.test_properties import random_graphs

SHARD_COUNTS = (1, 2, 3, 4)


def _first(graph):
    return {"source_vertex": int(graph.vertex_ids[0])}


def _last(graph):
    return {"source_vertex": int(graph.vertex_ids[-1])}


#: name -> (algorithm, params, graph fixtures). The oracle is always
#: ``run_reference``. The names keep the prefixes of the earlier
#: per-engine matrix so test ids stay comparable across history; the
#: two cases of a pair now differ in their parameters, not the engine.
CASES = {
    "pregel-bfs": ("bfs", _first, ("er_undirected", "er_directed", "two_triangles")),
    "gas-bfs": ("bfs", _last, ("er_undirected", "er_directed", "two_triangles")),
    "pregel-sssp": ("sssp", _first, ("er_weighted",)),
    "gas-sssp": ("sssp", _last, ("er_weighted",)),
    "pregel-wcc": ("wcc", lambda g: {}, ("er_undirected", "er_directed", "two_triangles")),
    "gas-wcc": ("wcc", lambda g: {}, ("grid4x5", "star6", "path5")),
    "pregel-cdlp": ("cdlp", lambda g: {"iterations": 5}, ("er_undirected", "er_directed")),
    "gas-cdlp": ("cdlp", lambda g: {}, ("er_undirected", "er_directed", "two_triangles")),
    "pregel-pr": ("pr", lambda g: {"iterations": 20}, ("er_undirected", "er_directed")),
    "gas-pr": ("pr", lambda g: {"iterations": 20, "damping": 0.5},
               ("er_undirected", "er_directed", "star6")),
    "lcc": ("lcc", lambda g: {}, ("er_undirected", "grid4x5", "two_triangles")),
}


class TestParityMatrix:
    """All six algorithms x miniatures x shards 1-4 x both strategies."""

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_bit_identical(
        self, case, shards, strategy, request, canonical_bytes
    ):
        algorithm, make_params, fixtures = CASES[case]
        for fixture in fixtures:
            graph = request.getfixturevalue(fixture)
            params = make_params(graph)
            expected = run_reference(algorithm, graph, params)
            actual = run_algorithm(
                graph,
                algorithm,
                params,
                partitions=shards,
                strategy=strategy,
                transport="inline",
            )
            assert actual.dtype == expected.dtype, fixture
            assert canonical_bytes(graph, actual, algorithm) == \
                canonical_bytes(graph, expected, algorithm), (
                f"{case} on {fixture}: {shards} {strategy} shard(s) "
                f"diverged from the reference kernel"
            )


class TestPipesTransport:
    """Real worker processes: the same contract over the wire."""

    @pytest.mark.parametrize("case", ["pregel-bfs", "pregel-cdlp", "gas-pr"])
    @pytest.mark.parametrize("shards", [2, 3])
    def test_bit_identical_over_pipes(
        self, case, shards, er_undirected, canonical_bytes
    ):
        algorithm, make_params, _ = CASES[case]
        graph = er_undirected
        params = make_params(graph)
        expected = run_reference(algorithm, graph, params)
        actual = run_algorithm(
            graph,
            algorithm,
            params,
            partitions=shards,
            transport="pipes",
        )
        assert canonical_bytes(graph, actual, algorithm) == \
            canonical_bytes(graph, expected, algorithm)

    def test_sssp_weighted_over_pipes(self, er_weighted, canonical_bytes):
        params = _first(er_weighted)
        expected = run_reference("sssp", er_weighted, params)
        actual = run_algorithm(
            er_weighted, "sssp", params, partitions=2, transport="pipes",
        )
        assert canonical_bytes(er_weighted, actual, "sssp") == \
            canonical_bytes(er_weighted, expected, "sssp")


class TestReferenceDifferential:
    """Random and degenerate graphs: every algorithm, shard count and
    strategy matches the reference kernel's canonical bytes."""

    @settings(max_examples=30, deadline=None)
    @given(graph=st.booleans().flatmap(
        lambda weighted: random_graphs(
            weighted=weighted, max_vertices=10, degenerate=True
        )
    ))
    def test_matches_run_reference(self, graph, tmp_path_factory):
        directory = tmp_path_factory.mktemp("differential")

        def render(values, algorithm):
            path = directory / "out.txt"
            write_output(graph, values, path, algorithm=algorithm)
            return path.read_bytes()

        for algorithm in ("bfs", "pr", "wcc", "cdlp", "lcc", "sssp"):
            if algorithm == "sssp" and not graph.is_weighted:
                continue
            params = _first(graph) if algorithm in ("bfs", "sssp") else {}
            expected = run_reference(algorithm, graph, params)
            rendered = render(expected, algorithm)
            for shards in SHARD_COUNTS:
                for strategy in PARTITION_STRATEGIES:
                    actual = run_algorithm(
                        graph, algorithm, params, partitions=shards,
                        strategy=strategy, transport="inline",
                    )
                    assert actual.dtype == expected.dtype
                    assert render(actual, algorithm) == rendered, (
                        f"{algorithm}: {shards} {strategy} shard(s)"
                    )


class TestPartitionerInvariants:
    """Property tests over seeded random graphs (satellite 1)."""

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(max_vertices=24))
    def test_invariants_hold(self, graph):
        for shards in (1, 2, 3):
            for strategy in PARTITION_STRATEGIES:
                pset = partition_graph(graph, shards, strategy)
                self._check(graph, pset)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_invariants_on_miniatures(
        self, er_directed, shards, strategy
    ):
        self._check(er_directed, partition_graph(er_directed, shards, strategy))

    @staticmethod
    def _check(graph, pset):
        n = graph.num_vertices
        # Every vertex owned exactly once: the shards' owned arrays
        # partition [0, n), and the owner map agrees with them.
        seen = np.concatenate([s.owned for s in pset.shards]) \
            if pset.shards else np.empty(0, dtype=np.int64)
        assert sorted(seen.tolist()) == list(range(n))
        for shard in pset.shards:
            assert all(pset.owner_of(int(v)) == shard.shard_id
                       for v in shard.owned)
            # Shard sizes within the strategy's balance bound.
            assert shard.size <= pset.balance_bound()
        # Every cut edge mirrored on BOTH incident shards.
        mirrors = [set(s.mirrors.tolist()) for s in pset.shards]
        counted = 0
        for u, v in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
            if pset.owner_of(u) == pset.owner_of(v):
                continue
            counted += 1
            assert v in mirrors[pset.owner_of(u)]
            assert u in mirrors[pset.owner_of(v)]
        assert counted == pset.cut_edges
        assert 0.0 <= pset.cut_fraction <= 1.0
        # Mirrors are never owned by the shard that mirrors them.
        for shard in pset.shards:
            assert not set(shard.owned.tolist()) & set(shard.mirrors.tolist())

    def test_single_shard_owns_everything(self, er_undirected):
        pset = partition_graph(er_undirected, 1)
        assert pset.shards[0].size == er_undirected.num_vertices
        assert pset.cut_edges == 0
        assert len(pset.shards[0].mirrors) == 0

    def test_hash_stable_across_calls(self, er_undirected):
        a = partition_graph(er_undirected, 3, "hash")
        b = partition_graph(er_undirected, 3, "hash")
        assert np.array_equal(a.owner, b.owner)

    def test_range_blocks_contiguous(self, er_undirected):
        pset = partition_graph(er_undirected, 3, "range")
        for shard in pset.shards:
            owned = shard.owned
            assert np.array_equal(
                owned, np.arange(owned[0], owned[-1] + 1)
            )

    def test_rejects_bad_inputs(self, er_undirected):
        with pytest.raises(ConfigurationError):
            partition_graph(er_undirected, 0)
        with pytest.raises(ConfigurationError):
            partition_graph(er_undirected, 2, "random")


def _negative_weights():
    return Graph(
        vertex_ids=np.array([1, 2, 3]), src=np.array([0, 1]),
        dst=np.array([1, 2]), directed=True, weights=np.array([1.0, -0.5]),
    )


class TestReferenceErrors:
    """The sharded path rejects exactly the inputs the reference kernels
    reject, with the same exception type, before any shard starts."""

    @pytest.mark.parametrize("algorithm, params, fixture, error", [
        ("pr", {"iterations": -1}, "er_undirected", GenerationError),
        ("pr", {"iterations": 5, "damping": 1.5}, "er_undirected",
         GenerationError),
        ("cdlp", {"iterations": -2}, "er_undirected", GenerationError),
        ("bfs", {"source_vertex": 99999}, "er_undirected", GraphFormatError),
        ("sssp", {"source_vertex": 99999}, "er_weighted", GraphFormatError),
        ("sssp", {"source_vertex": 0}, "er_undirected", GraphFormatError),
        ("sssp", {"source_vertex": 1}, "negative_weights", GraphFormatError),
        ("bfs", {}, "er_undirected", ConfigurationError),
        ("wcc", {"iterations": 3}, "er_undirected", ConfigurationError),
    ])
    def test_same_exception_as_run_reference(
        self, algorithm, params, fixture, error, request
    ):
        graph = (
            _negative_weights() if fixture == "negative_weights"
            else request.getfixturevalue(fixture)
        )
        with pytest.raises(error) as reference:
            run_reference(algorithm, graph, params)
        with pytest.raises(error) as sharded:
            run_algorithm(graph, algorithm, params, partitions=2)
        assert type(sharded.value) is type(reference.value)


class TestExchangeDeterminism:
    """Placement cannot change a single bit of the merged state."""

    def test_engine_state_identical_across_strategies_and_shards(
        self, er_undirected
    ):
        outputs = {
            run_algorithm(
                er_undirected, "pr", {"iterations": 15},
                partitions=shards, strategy=strategy, transport="inline",
            ).tobytes()
            for shards in SHARD_COUNTS
            for strategy in PARTITION_STRATEGIES
        }
        assert outputs == {
            run_reference("pr", er_undirected, {"iterations": 15}).tobytes()
        }


class TestChaosSupervision:
    """SIGKILL a shard mid-superstep; the run must still be bit-perfect."""

    def _chaos_plan(self, after):
        return {
            "seed": 1,
            "faults": [
                {
                    "point": STEP_FAULT_POINT,
                    "kind": "kill",
                    "after": after,
                    "times": 1,
                }
            ],
        }

    def test_killed_shard_relaunched_bit_identical(self, er_undirected):
        expected = run_reference("pr", er_undirected, {"iterations": 20})
        engine = PartitionedEngine(
            er_undirected,
            partitions=2,
            transport="pipes",
            chaos_plan=self._chaos_plan(after=2),
        )
        actual = engine.run("pr", {"iterations": 20})
        assert engine.respawns >= 1, "chaos plan never fired"
        assert actual.tobytes() == expected.tobytes()
        assert actual.dtype == expected.dtype

    def test_kill_during_gas_rounds(self, er_undirected):
        expected = run_reference("wcc", er_undirected)
        engine = PartitionedEngine(
            er_undirected,
            partitions=2,
            transport="pipes",
            chaos_plan=self._chaos_plan(after=1),
        )
        actual = engine.run("wcc")
        assert engine.respawns >= 1
        assert actual.tobytes() == expected.tobytes()
