"""Row-block distance kernel tests: block layout, one-shot equivalence, memory shape."""

import tracemalloc

import numpy as np
import pytest

from cluster_sense import distance
from cluster_sense.distance import (
    distance_rows,
    pairwise_distances,
    pairwise_sq_distances,
    row_blocks,
)


def _one_shot(x):
    """The whole-matrix formula the blocked kernel replaces."""
    d = np.sqrt(pairwise_sq_distances(x, x))
    np.fill_diagonal(d, 0.0)
    return d


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _budget_for_rows(monkeypatch, rows, n):
    monkeypatch.setattr(distance, "BLOCK_BYTES", rows * 8 * n)


class TestSquaredDistances:
    def test_in_place_expansion_rounds_like_the_textbook_formula(self):
        rng = np.random.default_rng(6)
        for n, m, d in [(1, 1, 1), (7, 3, 5), (64, 16, 33), (130, 130, 2)]:
            a = rng.normal(size=(n, d)) * 50.0 + 3.0
            b = rng.normal(size=(m, d)) - 1.0
            for y in (a, b):
                a_sq = np.einsum("ij,ij->i", a, a)
                y_sq = np.einsum("ij,ij->i", y, y)
                textbook = np.maximum(a_sq[:, None] + y_sq[None, :] - 2.0 * (a @ y.T), 0.0)
                assert np.array_equal(pairwise_sq_distances(a, y), textbook)


class TestRowBlocks:
    def test_default_budget_is_one_n1024_matrix(self):
        assert distance.BLOCK_BYTES == 8 * 1024 * 1024
        assert row_blocks(1024) == [(0, 1024)]
        assert row_blocks(1025) == [(0, 1023), (1023, 1025)]
        assert row_blocks(8192) == [(s, s + 128) for s in range(0, 8192, 128)]

    def test_blocks_cover_rows_once_with_short_last_block(self, monkeypatch):
        _budget_for_rows(monkeypatch, 7, 40)
        blocks = row_blocks(40)
        assert blocks == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 40)]

    def test_budget_below_one_row_still_makes_progress(self, monkeypatch):
        monkeypatch.setattr(distance, "BLOCK_BYTES", 1)
        assert row_blocks(3) == [(0, 1), (1, 2), (2, 3)]

    def test_no_rows_no_blocks(self):
        assert row_blocks(0) == []


class TestBlockedMatrix:
    # n is a multiple of 8 and no block is a single row: there OpenBLAS rounds
    # every element the same way whatever the GEMM shape (see the
    # cluster_sense.distance docstring), so blocks match the one-shot bits.
    N, D, ROWS = 320, 6, 128

    def _matrix(self, seed=0):
        return np.random.default_rng(seed).normal(size=(self.N, self.D)) * 3.0 + 1.0

    def test_several_blocks_equal_one_shot_bit_for_bit(self, monkeypatch):
        x = self._matrix()
        _budget_for_rows(monkeypatch, self.ROWS, self.N)
        assert row_blocks(self.N) == [(0, 128), (128, 256), (256, 320)]
        assert np.array_equal(pairwise_distances(x), _one_shot(x))

    def test_several_blocks_symmetric_with_zero_diagonal(self, monkeypatch):
        x = self._matrix(1)
        _budget_for_rows(monkeypatch, self.ROWS, self.N)
        d = pairwise_distances(x)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_single_block_equals_one_shot_bit_for_bit(self):
        # The dim256 benchmark shape: n = 1024 fills the default budget exactly.
        x = np.random.default_rng(2).normal(size=(1024, 288))
        assert len(row_blocks(1024)) == 1
        assert np.array_equal(pairwise_distances(x), _one_shot(x))

    def test_rows_are_slices_of_the_matrix(self, monkeypatch):
        x = self._matrix(3)
        _budget_for_rows(monkeypatch, self.ROWS, self.N)
        full = pairwise_distances(x)
        for start, stop in [(0, 128), (256, 320), (5, 7), (17, 250)]:
            rows = distance_rows(x, start, stop)
            assert rows.shape == (stop - start, self.N)
            assert np.array_equal(rows, full[start:stop])
        # numpy computes a one-row product with GEMV, which may round apart.
        np.testing.assert_allclose(distance_rows(x, 5, 6), full[5:6], rtol=1e-13, atol=0.0)
        assert distance_rows(x, 5, 6)[0, 5] == 0.0

    def test_any_n_matches_one_shot_within_rounding(self, monkeypatch):
        # For n that is not a multiple of the GEMM tile width the edge columns
        # may round differently from the one-shot matrix; only the last bits.
        x = np.random.default_rng(4).normal(size=(301, 9))
        _budget_for_rows(monkeypatch, 64, 301)
        assert row_blocks(301)[-1] == (256, 301)
        d = pairwise_distances(x)
        np.testing.assert_allclose(d, _one_shot(x), rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(d, d.T, rtol=1e-13, atol=0.0)
        assert np.all(np.diag(d) == 0.0)

    def test_peak_memory_is_one_matrix_plus_blocks(self, monkeypatch):
        # numpy reports its buffers to tracemalloc. The one-shot formula peaks
        # at two n x n matrices; the blocked fill at one plus a few blocks.
        n = 1024
        x = np.random.default_rng(5).normal(size=(n, 8))
        matrix_bytes = n * n * 8
        assert _traced_peak(lambda: _one_shot(x)) >= 2 * matrix_bytes
        _budget_for_rows(monkeypatch, 32, n)
        assert _traced_peak(lambda: pairwise_distances(x)) < 1.25 * matrix_bytes

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_inputs(self, n):
        x = np.arange(n * 2, dtype=float).reshape(n, 2)
        assert np.array_equal(pairwise_distances(x), _one_shot(x))
