"""Shared vectorized CSR helpers for the algorithm kernels."""

from __future__ import annotations

import numpy as np

__all__ = ["gather_neighbors", "expand_sources"]


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """All neighbors of the frontier vertices, concatenated (with repeats).

    Fully vectorized: equivalent to
    ``np.concatenate([indices[indptr[v]:indptr[v+1]] for v in frontier])``
    without the Python loop.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype)
    # Positions within each segment: 0..count-1, laid out back to back.
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total, dtype=np.int64) - offsets
    return indices[np.repeat(starts, counts) + within]


def expand_sources(indptr: np.ndarray) -> np.ndarray:
    """Source vertex of every CSR slot: [0]*deg(0) + [1]*deg(1) + ..."""
    n = len(indptr) - 1
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))

