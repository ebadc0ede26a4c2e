"""Community detection using label propagation (CDLP).

Graphalytics selects the label-propagation algorithm of Raghavan et
al. [34], "modified slightly to be both parallel and deterministic" [24]:

* every vertex starts with its own (external) id as label;
* each iteration is synchronous: every vertex simultaneously adopts the
  label that is most frequent among its neighbors' previous labels,
  breaking frequency ties by choosing the *smallest* label;
* for directed graphs both in- and out-neighbors are considered, and a
  vertex connected in both directions is counted twice;
* the number of iterations is a fixed workload parameter, making the
  output deterministic.

Vertices without neighbors keep their own label.

The kernel keeps labels as ranks of the external ids. Labels only ever
take vertex ids, so rank space is closed under propagation, and the
order of ranks is the order of ids, so "smallest label" means the same
in both; the ranks are mapped back to ids once, at the end. Each
iteration then costs one int64 sort of the ``receiver * n + label``
keys, O(E log E): run-length encoding gives each (receiver, label)
count, ``np.maximum.reduceat`` each receiver's highest count, and the
first group reaching it holds the smallest tied label. Every step is an
exact integer operation, so the labels are the same bytes a per-vertex
histogram over external ids would give.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import GenerationError
from repro.algorithms.common import expand_sources
from repro.graph.graph import Graph

__all__ = ["community_detection_lp"]


def _label_ranks(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Each vertex's initial label, the rank of its external id.

    Also returns the external ids in rank order, which maps ranks back.
    """
    ids_by_rank = np.sort(graph.vertex_ids)
    return np.searchsorted(ids_by_rank, graph.vertex_ids), ids_by_rank


def _most_frequent_min_label(
    n: int, receivers: np.ndarray, labels_in: np.ndarray, num_labels: int
) -> np.ndarray:
    """Per receiver, the most frequent label (ties -> smallest label).

    ``receivers[k]`` (in ``[0, n)``) hears label ``labels_in[k]`` (in
    ``[0, num_labels)``). Returns an int64 array of length n with -1 for
    vertices that hear nothing.
    """
    result = np.full(n, -1, dtype=np.int64)
    if len(receivers) == 0:
        return result
    keys = np.sort(receivers.astype(np.int64) * num_labels + labels_in)
    # Run-length encode the (receiver, label) pairs.
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=len(keys))
    group_recv, group_lab = np.divmod(keys[starts], num_labels)
    # Per receiver: the highest count, then the first group (smallest
    # label) that reaches it.
    recv_starts = np.flatnonzero(np.diff(group_recv, prepend=-1))
    best = np.maximum.reduceat(counts, recv_starts)
    is_best = counts == np.repeat(best, np.diff(recv_starts, append=len(counts)))
    candidates = np.flatnonzero(is_best)
    winners = candidates[np.diff(group_recv[candidates], prepend=-1) != 0]
    result[group_recv[winners]] = group_lab[winners]
    return result


def community_detection_lp(graph: Graph, *, iterations: int = 10) -> np.ndarray:
    """Deterministic synchronous label propagation; returns int64 labels.

    The returned array is indexed by dense vertex index and holds external
    vertex ids (community labels).
    """
    if iterations < 0:
        raise GenerationError(f"iterations must be >= 0, got {iterations}")
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)

    # Message fabric: every CSR out-slot sends the source's label to the
    # target. For undirected graphs the CSR already contains both
    # directions. For directed graphs we additionally send along reversed
    # edges so each vertex hears both in- and out-neighbors (bidirectional
    # pairs then naturally count twice, per the spec).
    out_sources = expand_sources(graph.out_indptr)
    out_targets = graph.out_indices
    if graph.directed:
        in_sources = expand_sources(graph.in_indptr)
        in_targets = graph.in_indices
        senders = np.concatenate([out_sources, in_sources])
        receivers = np.concatenate([out_targets, in_targets])
    else:
        senders = out_sources
        receivers = out_targets

    labels, ids_by_rank = _label_ranks(graph)
    for _ in range(iterations):
        heard = _most_frequent_min_label(n, receivers, labels[senders], n)
        updated = np.where(heard >= 0, heard, labels)
        if np.array_equal(updated, labels):
            break
        labels = updated
    return ids_by_rank[labels]
