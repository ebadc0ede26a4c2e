"""Single-source shortest paths (SSSP) on double-precision edge weights.

Graphalytics definition: the length of the shortest path from a given
source vertex to every other vertex, for graphs with double-precision
floating-point non-negative edge weights. Directed graphs follow
out-edges. Unreachable vertices get :data:`SSSP_UNREACHABLE` (infinity,
matching the official reference output).

The kernel relaxes a frontier to the min-plus fixpoint: each round takes
the out-slots of the vertices whose distance fell in the previous round
(at first, the source), computes ``dist[v] + w`` for all of them at once
and lowers the targets with ``np.minimum.at``. A vertex re-enters the
frontier only when its distance falls, so the work is the edges out of
improved vertices, summed over rounds, with no per-edge Python.

The result is byte-identical to Dijkstra's. Rounded float addition of a
non-negative weight is monotone and never decreases a distance, so both
algorithms end at the same value: for every vertex, the smallest
left-to-right float sum over all paths from the source.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import expand_sources, gather_neighbors
from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph

__all__ = ["single_source_shortest_paths", "SSSP_UNREACHABLE"]

#: Distance assigned to vertices not reachable from the source.
SSSP_UNREACHABLE: float = float("inf")


def single_source_shortest_paths(graph: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` (external id); returns float64 distances."""
    if not graph.is_weighted:
        raise GraphFormatError("SSSP requires a weighted graph")
    if not graph.has_vertex(source):
        raise GraphFormatError(f"SSSP source vertex {source} not in graph")
    weights = graph.out_weights
    if weights is not None and len(weights) and float(weights.min()) < 0:
        raise GraphFormatError("SSSP requires non-negative edge weights")

    n = graph.num_vertices
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    indptr, indices = graph.out_indptr, graph.out_indices
    slot_ids = np.arange(len(indices), dtype=np.int64)
    slot_sources = expand_sources(indptr)
    frontier = np.array([root], dtype=np.int64)
    while len(frontier):
        slots = gather_neighbors(indptr, slot_ids, frontier)
        targets = indices[slots]
        candidate = dist[slot_sources[slots]] + weights[slots]
        better = candidate < dist[targets]
        targets = targets[better]
        np.minimum.at(dist, targets, candidate[better])
        frontier = np.unique(targets)
    return dist
