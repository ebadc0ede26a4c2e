"""Local clustering coefficient (LCC).

Graphalytics definition: for each vertex, the ratio between the number of
edges that exist between its neighbors and the maximum number of such
edges. Formally, with ``N(v)`` the neighborhood of ``v`` (union of in-
and out-neighbors, excluding ``v`` itself):

    lcc(v) = |{(u, w) in E : u, w in N(v)}| / (|N(v)| * (|N(v)| - 1))

Ordered pairs are counted, so in an undirected graph each triangle edge
contributes twice (both (u,w) and (w,u) are "in E") and the familiar
``2T / (d (d-1))`` formula is recovered. Vertices with fewer than two
neighbors have LCC 0.

This is the most demanding of the six algorithms — O(sum_v d(v)^2)
neighborhood intersections done naively — which is why the paper
observes SLA failures for LCC on dense graphs (§4.2).

The kernel counts the edges inside every neighborhood at once, as an
oriented triangle count over the symmetric neighborhood graph (``u ~ w``
iff ``u -> w`` or ``w -> u``, ``u != w``):

* An edge ``u -> w`` with ``u != w`` lies inside ``N(v)`` exactly when
  ``{v, u, w}`` is a triangle of that graph. Each triangle therefore
  credits each corner with the number of edges on its opposite side,
  ``E[u,w] + E[w,u]`` (2 on undirected graphs, whose CSR stores both
  directions).
* A self-loop ``u -> u`` lies inside ``N(v)`` for every neighbor ``v``
  of ``u``; that term is added separately.
* Each neighborhood edge is oriented from the lower to the higher
  (degree, index) rank, so every triangle is found exactly once, from
  its lowest corner, by testing that corner's wedges against the sorted
  edge keys with one ``searchsorted``. Degree ordering bounds each
  oriented out-degree by O(sqrt(E)), so the cost is O(E^1.5 log E).
  Wedges are tested in fixed blocks, which bounds the scratch memory.

Link counts are exact integers and the final division is the same
correctly rounded ``links / (d * (d - 1))``, so the output is
byte-identical to a per-vertex loop over the definition.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import expand_sources
from repro.graph.graph import Graph

__all__ = ["local_clustering_coefficient"]

#: Wedges membership-tested per block; bounds the kernel's scratch memory.
_WEDGE_BLOCK = 1 << 14


def local_clustering_coefficient(graph: Graph, vertices=None) -> np.ndarray:
    """LCC of every vertex; returns a float64 array of values in [0, 1].

    ``vertices`` restricts the result to the given dense indices (the
    partitioned engine computes each shard's owned vertices this way);
    the returned array is still full-length, zero elsewhere. Each
    vertex's value depends only on its own neighborhood, so a sharded
    union over any vertex partition is bit-identical to the full run.
    """
    n = graph.num_vertices
    result = np.zeros(n, dtype=np.float64)
    if n == 0:
        return result

    src = expand_sources(graph.out_indptr)
    dst = graph.out_indices
    loop = src == dst
    self_loops = np.bincount(src[loop], minlength=n)
    src, dst = src[~loop], dst[~loop]
    # The neighborhood graph as sorted keys u*n + w, both directions; a
    # key's multiplicity is E[u,w] + E[w,u].
    keys, weight = np.unique(
        np.concatenate([src * n + dst, dst * n + src]), return_counts=True
    )
    near, far = np.divmod(keys, n)
    degree = np.bincount(near, minlength=n)
    links = np.bincount(near, weights=self_loops[far], minlength=n).astype(np.int64)

    by_rank = np.argsort(degree, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    up = rank[near] < rank[far]
    low, high = rank[near[up]], rank[far[up]]
    oriented = low * n + high
    order = np.argsort(oriented)
    links[by_rank] += _triangle_credit(
        n, oriented[order], low[order], high[order], weight[up][order]
    )

    pairs = degree * (degree - 1)
    np.divide(links, pairs, out=result, where=degree >= 2)
    if vertices is not None:
        restricted = np.zeros(n, dtype=np.float64)
        owned = np.asarray(vertices, dtype=np.int64)
        restricted[owned] = result[owned]
        return restricted
    return result


def _triangle_credit(
    n: int, oriented: np.ndarray, low: np.ndarray, high: np.ndarray,
    weight: np.ndarray,
) -> np.ndarray:
    """Per rank, the weight of the far side of every triangle it is in.

    ``oriented`` holds the sorted keys ``low*n + high`` of the oriented
    edges. A wedge pairs slot ``p`` with a later slot ``q`` of the same
    row; it closes a triangle when ``high[p] -> high[q]`` is an edge.
    """
    m = len(oriented)
    credit = np.zeros(n, dtype=np.int64)
    if m == 0:
        return credit
    row_end = np.cumsum(np.bincount(low, minlength=n))
    partners = row_end[low] - np.arange(1, m + 1)
    wedges_before = np.cumsum(partners) - partners
    start = 0
    while start < m:
        stop = int(np.searchsorted(
            wedges_before, wedges_before[start] + _WEDGE_BLOCK, side="left"
        ))
        stop = max(stop, start + 1)
        counts = partners[start:stop]
        p = np.repeat(np.arange(start, stop), counts)
        offset = np.arange(len(p)) - np.repeat(
            wedges_before[start:stop] - wedges_before[start], counts
        )
        q = p + 1 + offset
        closing = high[p] * n + high[q]
        pos = np.minimum(np.searchsorted(oriented, closing), m - 1)
        hit = oriented[pos] == closing
        p, q, pos = p[hit], q[hit], pos[hit]
        np.add.at(credit, low[p], weight[pos])
        np.add.at(credit, high[p], weight[q])
        np.add.at(credit, high[q], weight[p])
        start = stop
    return credit
