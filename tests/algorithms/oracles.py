"""Scalar formulations of LCC, CDLP and SSSP, kept as test oracles.

These are the straightforward per-vertex / heap / two-sort versions of
the reference kernels. The kernels in :mod:`repro.algorithms` must
reproduce their outputs byte for byte (``test_oracles.py``); nothing
outside the tests imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.algorithms.common import expand_sources, gather_neighbors
from repro.algorithms.sssp import SSSP_UNREACHABLE
from repro.graph.graph import Graph


def lcc_per_vertex(graph: Graph, vertices=None) -> np.ndarray:
    """LCC with one membership test per vertex neighbourhood."""
    n = graph.num_vertices
    result = np.zeros(n, dtype=np.float64)
    out_indptr, out_indices = graph.out_indptr, graph.out_indices
    in_indptr, in_indices = graph.in_indptr, graph.in_indices
    targets = range(n) if vertices is None else [int(v) for v in vertices]
    for v in targets:
        out_nb = out_indices[out_indptr[v]:out_indptr[v + 1]]
        if graph.directed:
            in_nb = in_indices[in_indptr[v]:in_indptr[v + 1]]
            neighborhood = np.union1d(out_nb, in_nb)
        else:
            neighborhood = out_nb
        neighborhood = neighborhood[neighborhood != v]
        d = len(neighborhood)
        if d < 2:
            continue
        candidates = gather_neighbors(out_indptr, out_indices, neighborhood)
        pos = np.searchsorted(neighborhood, candidates)
        pos[pos == d] = d - 1
        links = int(np.count_nonzero(neighborhood[pos] == candidates))
        result[v] = links / (d * (d - 1))
    return result


def sssp_dijkstra(graph: Graph, source: int) -> np.ndarray:
    """Dijkstra with a binary heap and lazily deleted entries."""
    n = graph.num_vertices
    weights = graph.out_weights
    dist = np.full(n, SSSP_UNREACHABLE, dtype=np.float64)
    root = graph.index_of(source)
    dist[root] = 0.0
    indptr, indices = graph.out_indptr, graph.out_indices
    heap = [(0.0, root)]
    settled = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        for slot in range(indptr[v], indptr[v + 1]):
            u = indices[slot]
            if settled[u]:
                continue
            candidate = d + weights[slot]
            if candidate < dist[u]:
                dist[u] = candidate
                heapq.heappush(heap, (candidate, int(u)))
    return dist


def most_frequent_min_label_lexsort(
    n: int, receivers: np.ndarray, labels_in: np.ndarray
) -> np.ndarray:
    """Per receiver, the most frequent label (ties -> smallest), by two lexsorts."""
    result = np.full(n, -1, dtype=np.int64)
    if len(receivers) == 0:
        return result
    order = np.lexsort((labels_in, receivers))
    recv = receivers[order]
    labs = labels_in[order]
    boundary = np.empty(len(recv), dtype=bool)
    boundary[0] = True
    boundary[1:] = (recv[1:] != recv[:-1]) | (labs[1:] != labs[:-1])
    starts = np.nonzero(boundary)[0]
    counts = np.diff(np.append(starts, len(recv)))
    group_recv = recv[starts]
    group_lab = labs[starts]
    pick = np.lexsort((group_lab, -counts, group_recv))
    sorted_recv = group_recv[pick]
    first = np.empty(len(pick), dtype=bool)
    first[0] = True
    first[1:] = sorted_recv[1:] != sorted_recv[:-1]
    winners = pick[first]
    result[group_recv[winners]] = group_lab[winners]
    return result


def cdlp_external_labels(graph: Graph, iterations: int = 10) -> np.ndarray:
    """Label propagation over external-id labels with the lexsort helper."""
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    senders = expand_sources(graph.out_indptr)
    receivers = graph.out_indices
    if graph.directed:
        senders = np.concatenate([senders, expand_sources(graph.in_indptr)])
        receivers = np.concatenate([receivers, graph.in_indices])
    labels = graph.vertex_ids.astype(np.int64).copy()
    for _ in range(iterations):
        heard = most_frequent_min_label_lexsort(n, receivers, labels[senders])
        updated = labels.copy()
        has_neighbors = heard >= 0
        updated[has_neighbors] = heard[has_neighbors]
        if np.array_equal(updated, labels):
            break
        labels = updated
    return labels
