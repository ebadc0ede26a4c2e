"""Tests for the shared CSR helpers."""

import numpy as np

from repro.algorithms.common import expand_sources, gather_neighbors


class TestGatherNeighbors:
    def test_matches_naive_concatenation(self, er_directed):
        indptr, indices = er_directed.out_indptr, er_directed.out_indices
        frontier = np.array([0, 5, 17, 3], dtype=np.int64)
        expected = np.concatenate(
            [indices[indptr[v]:indptr[v + 1]] for v in frontier]
        )
        assert np.array_equal(
            gather_neighbors(indptr, indices, frontier), expected
        )

    def test_empty_frontier(self, er_directed):
        out = gather_neighbors(
            er_directed.out_indptr,
            er_directed.out_indices,
            np.array([], dtype=np.int64),
        )
        assert len(out) == 0

    def test_isolated_vertices_contribute_nothing(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        indices = np.array([0, 2], dtype=np.int64)
        out = gather_neighbors(indptr, indices, np.array([0, 2], dtype=np.int64))
        assert len(out) == 0

    def test_repeated_frontier_vertices_repeat_neighbors(self):
        indptr = np.array([0, 2], dtype=np.int64)
        indices = np.array([5, 7], dtype=np.int64)
        out = gather_neighbors(indptr, indices, np.array([0, 0], dtype=np.int64))
        assert out.tolist() == [5, 7, 5, 7]


class TestExpandSources:
    def test_matches_degrees(self, er_directed):
        sources = expand_sources(er_directed.out_indptr)
        degrees = er_directed.out_degrees()
        counts = np.bincount(sources, minlength=er_directed.num_vertices)
        assert np.array_equal(counts, degrees)

    def test_empty(self):
        assert len(expand_sources(np.array([0], dtype=np.int64))) == 0

