"""Cluster-validity metrics: NMI, Rand index, ARI, Silhouette, Davies-Bouldin.

The three label-comparison metrics score one contingency table: a labeling is
counted against the truth once, by contingency, and nmi, rand_index and
adjusted_rand_index each take that table, not the labels. The two geometric
metrics use Euclidean distances from the shared distance kernels so values
computed inside a sweep match direct calls exactly.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dataset import dense_remap
from .distance import (
    check_distances,
    fits_one_block,
    for_each_tile,
    pairwise_distances,
    pairwise_sq_distances,
    tile,
    tile_operand,
)

METRIC_NAMES = ("nmi", "ri", "ari", "silhouette", "davies_bouldin")


def contingency(predicted, truth) -> np.ndarray:
    """k_x by k_y table; cell (i, j) counts points with predicted=i, truth=j.

    Both label vectors are remapped to dense [0, k) ranges by first
    appearance, so any integer ids are accepted. They must be equal-length,
    non-empty vectors.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.ndim != 1 or predicted.shape != truth.shape:
        raise ValueError(
            f"partitions must be equal-length vectors, got {predicted.shape} and {truth.shape}"
        )
    if predicted.size == 0:
        raise ValueError("partitions must be non-empty")
    predicted = dense_remap(predicted)
    truth = dense_remap(truth)
    kx = int(predicted.max()) + 1
    ky = int(truth.max()) + 1
    counts = np.bincount(predicted * ky + truth, minlength=kx * ky)
    return counts.reshape(kx, ky)


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(table: np.ndarray) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    Natural-log entropies (the log base cancels). Returns 1.0 when both
    partitions are single-cluster, 0.0 when the mutual information is zero.
    """
    n = int(table.sum())
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    h_x = _entropy(rows, n)
    h_y = _entropy(cols, n)
    if h_x == 0.0 and h_y == 0.0:
        return 1.0

    mi = 0.0
    nz_i, nz_j = np.nonzero(table)
    for i, j in zip(nz_i, nz_j):
        n_ij = table[i, j]
        mi += (n_ij / n) * math.log(n * n_ij / (rows[i] * cols[j]))
    if mi <= 0.0:
        return 0.0
    return min(1.0, mi / ((h_x + h_y) / 2.0))


def _pair_sums(table: np.ndarray) -> tuple[int, int, int]:
    """(sum of C(n_ij,2), sum of C(row,2), sum of C(col,2)) as exact ints.

    Computed in int64, which is exact while every count v has v * (v - 1)
    below 2^63, i.e. for n < 2^31 points.
    """

    def comb2_sum(values: np.ndarray) -> int:
        return int((values * (values - 1) // 2).sum())

    table = np.asarray(table, dtype=np.int64)
    return comb2_sum(table), comb2_sum(table.sum(axis=1)), comb2_sum(table.sum(axis=0))


def rand_index(table: np.ndarray) -> float:
    """(a + b) / C(n, 2): the fraction of point pairs the partitions agree on.

    a is the sum of C(v, 2) over the contingency cells (pairs together in
    both) and b = C(n, 2) + a - rows - cols, rows and cols being the same sum
    over the row and column margins (pairs apart in both). The numerator is
    an exact integer, so the result is correctly rounded.
    """
    n = int(table.sum())
    if n < 2:
        raise ValueError("rand index requires at least 2 points")
    cells, rows, cols = _pair_sums(table)
    total = n * (n - 1) // 2
    return (total + 2 * cells - rows - cols) / total


def adjusted_rand_index(table: np.ndarray) -> float:
    """Rand index adjusted by its permutation-model expectation.

    Closed form over the contingency margins: the expected pair agreement is
    E = sum_i C(row_i,2) * sum_j C(col_j,2) / C(n,2) and the maximum is the
    mean of the two marginal sums. Identical trivial partitions score 1.0.
    """
    n = int(table.sum())
    if n < 2:
        raise ValueError("adjusted rand index requires at least 2 points")
    cells, rows, cols = _pair_sums(table)
    total = n * (n - 1) // 2
    # Multiply numerator and denominator by 2*total: exact integers all the
    # way, so the result is the correctly rounded value of the true rational.
    numerator = 2 * (cells * total - rows * cols)
    denominator = total * (rows + cols) - 2 * rows * cols
    if denominator == 0:
        # Both partitions trivial (all-one-cluster or all-singletons): they
        # can only be identical, which counts as perfect agreement.
        return 1.0
    return numerator / denominator


def _present_clusters(assignments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dense = dense_remap(assignments)
    return dense, np.bincount(dense)


def _stack(assignments) -> np.ndarray:
    """`assignments` as an array; ValueError unless it is a stack (R, n) of labelings."""
    labelings = np.asarray(assignments)
    if labelings.ndim != 2:
        raise ValueError(f"assignments must be a stack (R, n), got shape {labelings.shape}")
    return labelings


def _cluster_sums(
    matrix: np.ndarray, present: list, distances: np.ndarray | None
) -> list[np.ndarray]:
    """Per (dense labels, counts) of `present`, the n x k sums of each
    point's distances to each cluster, tile by tile (see silhouette): the
    one tile of `distances`, a one-block matrix, or else computed tiles."""
    n = matrix.shape[0]
    operand = tile_operand(matrix) if distances is None else None
    onehots = [np.eye(counts.size)[dense] for dense, counts in present]
    all_sums = [np.zeros_like(onehot) for onehot in onehots]

    def tile_sums(rows, columns, out):
        block = tile(operand, rows, columns, out) if distances is None else distances
        return block, [block @ onehot[columns] for onehot in onehots]

    def add_sums(rows, columns, computed):
        # By symmetry the tile's columns past its strip also hold those
        # rows' distances to the strip's points; their product runs here,
        # one W x k product at a time, so no thread holds more than its
        # tile while it waits to commit.
        block, own_sums = computed
        later = slice(max(rows.stop, columns.start), columns.stop)
        for cluster_sums, own, onehot in zip(all_sums, own_sums, onehots):
            cluster_sums[rows] += own
            cluster_sums[later] += block[:, later.start - columns.start :].T @ onehot[rows]

    for_each_tile(n, tile_sums, add_sums)
    return all_sums


def silhouette(
    matrix: np.ndarray, assignments: np.ndarray, distances: np.ndarray | None = None
) -> np.ndarray:
    """Mean silhouette value: (d_n - d_w) / max(d_n, d_w) per point.

    d_w is the mean distance to the point's own cluster (itself excluded),
    d_n the mean distance to the nearest other cluster. Points in singleton
    clusters contribute 0.

    `assignments` is a stack (R, n) of labelings of the same points, giving
    a float64 array of R values; a 1-D labeling raises ValueError. The
    distance matrix's upper triangle is read once for the whole stack, tile
    by tile (distance.tiles), so every pair is computed once. Per labeling,
    a tile times the one-hot labeling of its columns gives its rows'
    per-cluster sums; the transposed tile's columns past its strip times
    the strip's one-hot rows gives those later rows' sums over the strip's
    points. Both are added at the tile's commit, in tile order. All of it
    runs on one BLAS thread with tiles spread over threads (see
    distance.for_each_tile). Each value has the same bits as a call with
    that labeling alone, whatever the thread counts.

    A matrix that fits one block is pairwise_distances(matrix), its one
    tile, given or built here. A larger matrix computes each tile as one
    product of augmented operands (distance.tile): the column side
    [x | 1 | |x|^2], n * (d + 2) floats built once per call, and a strip's
    row side [-2 x_I | |x_I|^2 | 1], so the product is
    |x_i|^2 + |x_j|^2 - 2 x_i.x_j and only the clamp, the square root and
    the zero diagonal follow. It rounds like pairwise_distances' expansion
    but not to its bits, and its sums are added tile by tile, so values of
    n > 1024 points may differ from those of the expansion in their last
    bits; they depend on n alone, never on the thread count. For T threads,
    d columns and k clusters, memory is at most
    T * TILE_ROWS * TILE_COLUMNS + n * (d + 2) + 2 * R * n * k floats: a
    tile buffer per thread, reused for every tile it takes, the column-side
    operand, and each labeling's one-hot matrix and sums. Beside them are
    the row sides and each held tile's own sums (TILE_ROWS * (d + 2 + R * k)
    floats per thread), the one W x k product of the commit running (W at
    most TILE_COLUMNS) and the label arrays (R * n integers): O(n * d +
    R * n * k) for any n, rather than O(n^2).

    distances, when given, must be pairwise_distances(matrix) of the same
    float64 matrix (ValueError unless it is n x n and fits one block, see
    distance.check_distances). It is read in place of building it, and it
    is not written to; so every value keeps its bits.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    labelings = _stack(assignments)
    present = [_present_clusters(labels) for labels in labelings]
    n = labelings.shape[1]
    if matrix.shape[0] != n:
        raise ValueError("matrix and assignments disagree on the number of points")
    if n < 2:
        raise ValueError("silhouette requires at least 2 points")
    if any(counts.size < 2 for _, counts in present):
        raise ValueError("silhouette requires at least 2 distinct clusters")
    if distances is not None:
        distances = check_distances(distances, n)
    elif fits_one_block(n):
        distances = pairwise_distances(matrix)

    values = []
    for cluster_sums, (dense, counts) in zip(_cluster_sums(matrix, present, distances), present):
        own_counts = counts[dense]
        with np.errstate(invalid="ignore", divide="ignore"):
            d_w = cluster_sums[np.arange(n), dense] / (own_counts - 1)
        # The sums are not read again, so their means take their place.
        mean_to = np.divide(cluster_sums, counts[None, :], out=cluster_sums)
        mean_to[np.arange(n), dense] = np.inf
        d_n = mean_to.min(axis=1)

        denom = np.maximum(d_n, d_w)
        with np.errstate(invalid="ignore", divide="ignore"):
            s = (d_n - d_w) / denom
        s[own_counts == 1] = 0.0
        s[denom == 0.0] = 0.0
        values.append(min(1.0, max(-1.0, float(s.mean()))))
    return np.array(values, dtype=np.float64)


def davies_bouldin(matrix: np.ndarray, assignments: np.ndarray) -> float:
    """Mean over clusters of the worst (delta_i + delta_j) / Delta_ij ratio.

    delta is the mean member-to-centroid distance, Delta the centroid-to-
    centroid distance. Coincident centroids of two non-empty clusters make
    the score +inf (with a warning naming the clusters).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dense, counts = _present_clusters(assignments)
    if matrix.shape[0] != dense.size:
        raise ValueError("matrix and assignments disagree on the number of points")
    kp = counts.size
    if kp < 2:
        raise ValueError("davies-bouldin requires at least 2 distinct clusters")

    centroids = np.empty((kp, matrix.shape[1]))
    delta = np.empty(kp)
    for j in range(kp):
        # members is a copy (a boolean-mask gather), so its spread is taken
        # in place: the same passes as the squared differences, no temporary.
        members = matrix[dense == j]
        centroids[j] = members.mean(axis=0)
        members -= centroids[j]
        np.square(members, out=members)
        sums = members.sum(axis=1)
        delta[j] = float(np.sqrt(sums, out=sums).mean())

    big_delta = np.sqrt(pairwise_sq_distances(centroids, centroids))
    off_diag = ~np.eye(kp, dtype=bool)
    # The |a|^2 + |b|^2 - 2ab expansion can leave bit-equal centroids a
    # rounding residue instead of 0, so equal rows count as coincident too.
    equal_rows = (centroids[:, None, :] == centroids[None, :, :]).all(axis=2)
    coincident = off_diag & ((big_delta == 0.0) | equal_rows)
    if np.any(coincident):
        i, j = [int(v[0]) for v in np.nonzero(coincident)]
        warnings.warn(
            f"coincident centroids for clusters {i} and {j}; davies-bouldin is +inf",
            RuntimeWarning,
            stacklevel=2,
        )
        return math.inf

    # The diagonal divides by zero (0/0 when delta is 0 too); it is masked
    # out immediately below, so suppress the float warnings here.
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (delta[:, None] + delta[None, :]) / big_delta
    ratios[~off_diag] = -np.inf
    return float(ratios.max(axis=1).mean())


def evaluate_clustering(
    matrix: np.ndarray,
    assignments: np.ndarray,
    truth: np.ndarray,
    distances: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """All five metrics for each clustering in a stack (R, n) of clusterings
    of the same matrix, the external ones against `truth`.

    Returns a dict mapping each name of METRIC_NAMES, in that order, to a
    float64 array of R values, value r being that metric of labeling r. A
    one-labeling stack (1, n) scores one clustering; a 1-D labeling raises
    ValueError. distances, when given, is pairwise_distances(matrix), passed
    on to `silhouette`; the values are the same either way.
    """
    labelings = _stack(assignments)
    tables = [contingency(labels, truth) for labels in labelings]
    columns = (
        [nmi(table) for table in tables],
        [rand_index(table) for table in tables],
        [adjusted_rand_index(table) for table in tables],
        silhouette(matrix, labelings, distances),
        [davies_bouldin(matrix, labels) for labels in labelings],
    )
    return {
        name: np.array(values, dtype=np.float64) for name, values in zip(METRIC_NAMES, columns)
    }
