"""Shared Euclidean distance kernels.

Both the clusterer and the geometry metrics go through these helpers so that
a metric computed inside a sweep is bit-identical to one computed by calling
the metric function directly on the same matrix.

The n x n distance matrix is computed in row blocks of at most BLOCK_BYTES,
so a caller that only reduces the rows (silhouette, for all clusterings of
one matrix at once) needs O(block * n) memory for them instead of O(n^2).
pairwise_distances assembles the whole matrix: the sweep builds it for a
matrix that fits one block, where it is that block, and shares it between
k-means++ and silhouette. A matrix that fits one block is computed in a
single call, exactly as the one-shot formula sqrt(pairwise_sq_distances(x, x))
would. Blocks reproduce that one-shot matrix bit for bit only where the BLAS
GEMM rounds every element the same way whatever the operand shape. With
OpenBLAS 0.3.31 on an AVX-512 x86-64 CPU that holds when n is a multiple of 8
and no block is a single row (numpy computes a one-row product with GEMV);
otherwise some entries may differ in the last bits, and the blocked matrix
is symmetric only to within rounding.
A given n always splits into the same blocks, so results stay reproducible
either way.
"""

from __future__ import annotations

import numpy as np

# Byte budget of one block of float64 distance rows: one n = 1024 matrix.
BLOCK_BYTES = 8 * 1024 * 1024
# Byte budget of the |a|^2 + |b|^2 temporary in pairwise_sq_distances.
_SUM_CHUNK_BYTES = 1024 * 1024


def pairwise_sq_distances(
    a: np.ndarray, b: np.ndarray, a_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`.

    Uses the |a|^2 + |b|^2 - 2ab expansion (BLAS-backed); tiny negative
    values from cancellation are clipped to zero.

    a_sq, when given, must be the squared row norms of `a` as computed by
    np.einsum("ij,ij->i", a, a) on the same float64 array; a caller that
    measures many `b` against one `a` (a k-means fit) computes it once
    instead of once per call. The result is bit-identical either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    # In place; (-2ab) + (|a|^2 + |b|^2) rounds exactly like
    # (|a|^2 + |b|^2) - 2ab. The norm sums are added a few rows at a time, so
    # the only result-sized buffer is the result itself.
    d2 = a @ b.T
    d2 *= -2.0
    step = max(1, _SUM_CHUNK_BYTES // (8 * max(b_sq.size, 1)))
    for start in range(0, d2.shape[0], step):
        d2[start : start + step] += a_sq[start : start + step, None] + b_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges covering an n x n float64 matrix.

    Each block holds BLOCK_BYTES // (8 n) rows (at least one); the last block
    may be shorter.
    """
    step = max(1, BLOCK_BYTES // (8 * max(n, 1)))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def distance_rows(x: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start:stop of the n x n Euclidean distance matrix of `x`.

    The self-distance entries (i, i) are exactly zero.
    """
    x = np.asarray(x, dtype=np.float64)
    d = pairwise_sq_distances(x[start:stop], x)
    np.sqrt(d, out=d)
    rows = np.arange(stop - start)
    d[rows, start + rows] = 0.0
    return d


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Full n x n Euclidean distance matrix with an exactly zero diagonal.

    Filled block by block, so peak memory is n^2 floats plus a few blocks.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    blocks = row_blocks(n)
    if len(blocks) == 1:
        return distance_rows(x, 0, n)
    d = np.empty((n, n))
    for start, stop in blocks:
        d[start:stop] = distance_rows(x, start, stop)
    return d


def check_distances(distances: np.ndarray, n: int) -> np.ndarray:
    """`distances` as a float64 array; ValueError unless its shape is (n, n).

    Callers that accept a precomputed matrix take it to be pairwise_distances
    of their float64 points and only read it.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (n, n):
        raise ValueError(f"distances must have shape {(n, n)}, got {distances.shape}")
    return distances
