"""A miniature SpMV engine: GraphMat's sparse-matrix model.

GraphMat "maps Pregel-like vertex programs to high-performance sparse
matrix operations" (paper §3.1). Here the mapping is explicit: graph
algorithms are iterated generalized sparse-matrix–vector products
``y = A^T (x) `` over an algebraic :class:`Semiring` — (min, +) for
shortest paths, (|, &) for reachability, (+, x) for PageRank — with an
element-wise accumulate against the previous state.

The products are fully vectorized over the CSR arrays (numpy scatter
reductions), which is exactly the performance argument for the model:
no per-vertex control flow, only bulk array operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import GraphFormatError
from repro.algorithms.common import expand_sources
from repro.graph.graph import Graph
from repro.trace import current_tracer

__all__ = [
    "Semiring",
    "SpMVEngine",
    "MIN_PLUS",
    "OR_AND",
    "PLUS_TIMES",
    "run_bfs",
    "run_sssp",
    "run_wcc",
    "run_pagerank",
    "run_cdlp",
]


@dataclass(frozen=True)
class Semiring:
    """(add, multiply, additive identity) over numpy arrays.

    ``add_reduce(target_indices, terms, n)`` performs the scattered
    semiring addition: combine ``terms[k]`` into slot
    ``target_indices[k]`` of a fresh vector of additive identities.
    """

    name: str
    zero: float
    add_reduce: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]


def _min_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    out = np.full(n, np.inf)
    np.minimum.at(out, targets, terms)
    return out


def _sum_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(targets, weights=terms, minlength=n).astype(np.float64)


def _or_reduce(targets: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    np.maximum.at(out, targets, terms)
    return out


MIN_PLUS = Semiring("min-plus", np.inf, _min_reduce, lambda x, w: x + w)
OR_AND = Semiring("or-and", 0.0, _or_reduce, lambda x, w: x * w)
PLUS_TIMES = Semiring("plus-times", 0.0, _sum_reduce, lambda x, w: x * w)


class SpMVEngine:
    """Generalized y = A^T x over a semiring, on a graph's CSR arrays."""

    def __init__(self, graph: Graph):
        self.graph = graph
        # Message flow src -> dst: expand the out-CSR once. Undirected
        # graphs already store both directions.
        self._sources = expand_sources(graph.out_indptr)
        self._targets = graph.out_indices
        if graph.out_weights is not None:
            self._weights = graph.out_weights.astype(np.float64)
        else:
            self._weights = np.ones(len(self._targets), dtype=np.float64)
        # The transpose (dst -> src) for direction-ignoring algorithms.
        self._rev_sources = expand_sources(graph.in_indptr)
        self._rev_targets = graph.in_indices

    def spmv(self, x: np.ndarray, semiring: Semiring, *,
             reverse: bool = False, unit_weights: bool = False) -> np.ndarray:
        """One product: combine x[src] (x) w over edges into each dst."""
        if reverse:
            # in-CSR slot k: edge in_indices[k] -> rev_sources[k]; the
            # reverse product pushes each vertex's value to its
            # in-neighbors (against edge direction).
            sources, targets = self._rev_sources, self._rev_targets
        else:
            sources, targets = self._sources, self._targets
        weights = (
            np.ones(len(targets)) if unit_weights else self._weights
        )
        if reverse:
            # Reverse edges reuse the forward weight layout only for
            # unit-weight algorithms; weighted reverse products are not
            # needed by any kernel here.
            weights = np.ones(len(targets))
        terms = semiring.multiply(x[sources], weights)
        return semiring.add_reduce(targets, terms, self.graph.num_vertices)


_UNREACHED = np.iinfo(np.int64).max


def run_bfs(graph: Graph, source: int) -> np.ndarray:
    """Level-synchronous BFS: frontier = (A^T f) & ~visited (OR-AND)."""
    if not graph.has_vertex(source):
        raise GraphFormatError(f"BFS source vertex {source} not in graph")
    engine = SpMVEngine(graph)
    n = graph.num_vertices
    depth = np.full(n, _UNREACHED, dtype=np.int64)
    frontier = np.zeros(n)
    root = graph.index_of(source)
    frontier[root] = 1.0
    depth[root] = 0
    level = 0
    tracer = current_tracer()
    while frontier.any():
        level += 1
        with tracer.span("iteration", engine="spmv", algorithm="bfs",
                         index=level - 1):
            reached = engine.spmv(frontier, OR_AND, unit_weights=True)
            frontier = np.where(depth == _UNREACHED, reached, 0.0)
            depth[frontier > 0] = level
    return depth


def run_sssp(graph: Graph, source: int) -> np.ndarray:
    """Bellman-Ford as iterated min-plus products with accumulate."""
    if not graph.is_weighted:
        raise GraphFormatError("SSSP requires a weighted graph")
    if not graph.has_vertex(source):
        raise GraphFormatError(f"SSSP source vertex {source} not in graph")
    engine = SpMVEngine(graph)
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    dist[graph.index_of(source)] = 0.0
    tracer = current_tracer()
    for iteration in range(n):
        with tracer.span("iteration", engine="spmv", algorithm="sssp",
                         index=iteration):
            relaxed = np.minimum(dist, engine.spmv(dist, MIN_PLUS))
            converged = np.array_equal(relaxed, dist)
        if converged:
            break
        dist = relaxed
    return dist


def run_wcc(graph: Graph) -> np.ndarray:
    """Min-label propagation: min-plus with zero weights, both ways."""
    engine = SpMVEngine(graph)
    labels = graph.vertex_ids.astype(np.float64)
    zero_weight = Semiring("min-first", np.inf, _min_reduce, lambda x, w: x)
    tracer = current_tracer()
    iteration = 0
    while True:
        with tracer.span("iteration", engine="spmv", algorithm="wcc",
                         index=iteration):
            candidate = np.minimum(labels, engine.spmv(labels, zero_weight))
            candidate = np.minimum(
                candidate, engine.spmv(labels, zero_weight, reverse=True)
            )
            converged = np.array_equal(candidate, labels)
        iteration += 1
        if converged:
            break
        labels = candidate
    return labels.astype(np.int64)


def run_pagerank(
    graph: Graph, iterations: int = 30, damping: float = 0.85
) -> np.ndarray:
    """Standard (+, x) PageRank with dangling redistribution."""
    engine = SpMVEngine(graph)
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.float64)
    out_degree = graph.out_degrees().astype(np.float64)
    dangling = out_degree == 0
    rank = np.full(n, 1.0 / n)
    base = (1.0 - damping) / n
    tracer = current_tracer()
    for iteration in range(iterations):
        with tracer.span("iteration", engine="spmv", algorithm="pr",
                         index=iteration):
            contrib = np.zeros(n)
            np.divide(rank, out_degree, out=contrib, where=~dangling)
            incoming = engine.spmv(contrib, PLUS_TIMES, unit_weights=True)
            rank = base + damping * (incoming + rank[dangling].sum() / n)
    return rank


def run_cdlp(graph: Graph, iterations: int = 10) -> np.ndarray:
    """CDLP as a generalized product over the (histogram-merge) monoid.

    The per-target combine is a label histogram rather than a scalar —
    the "generalized SpMV" GraphMat exposes for vertex programs whose
    message reduction is not a classical semiring addition.
    """
    from repro.algorithms.cdlp import _label_ranks, _most_frequent_min_label

    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    out_sources = expand_sources(graph.out_indptr)
    out_targets = graph.out_indices
    if graph.directed:
        in_sources = expand_sources(graph.in_indptr)
        in_targets = graph.in_indices
        senders = np.concatenate([out_sources, in_sources])
        receivers = np.concatenate([out_targets, in_targets])
    else:
        senders, receivers = out_sources, out_targets
    labels, ids_by_rank = _label_ranks(graph)
    tracer = current_tracer()
    for iteration in range(iterations):
        with tracer.span("iteration", engine="spmv", algorithm="cdlp",
                         index=iteration):
            heard = _most_frequent_min_label(n, receivers, labels[senders], n)
            updated = np.where(heard >= 0, heard, labels)
            converged = np.array_equal(updated, labels)
        if converged:
            break
        labels = updated
    return ids_by_rank[labels]
