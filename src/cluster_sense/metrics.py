"""Cluster-validity metrics: NMI, Rand index, ARI, Silhouette, Davies-Bouldin.

The label-comparison metrics run off a shared contingency table; the two
geometric metrics use Euclidean distances from the shared distance kernels so
values computed inside a sweep match direct calls exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import dense_remap
from .distance import distance_rows, pairwise_sq_distances, row_blocks

# Not called here: silhouette reduces row blocks instead of building the full
# matrix. The name stays bound because perfbench/layertrace.py wraps
# metrics.pairwise_distances to count full matrices built for silhouette.
from .distance import pairwise_distances  # noqa: F401

METRIC_NAMES = ("nmi", "ri", "ari", "silhouette", "davies_bouldin")


@dataclass(frozen=True)
class PartitionPair:
    """Two dense partitions of the same n points (predicted vs truth)."""

    predicted: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        predicted = np.asarray(self.predicted, dtype=np.int64)
        truth = np.asarray(self.truth, dtype=np.int64)
        if predicted.ndim != 1 or predicted.shape != truth.shape:
            raise ValueError(
                f"partitions must be equal-length vectors, got {predicted.shape} and {truth.shape}"
            )
        if predicted.size == 0:
            raise ValueError("partitions must be non-empty")
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "truth", truth)

    @classmethod
    def from_labels(cls, predicted, truth) -> "PartitionPair":
        """Build a pair, remapping both label vectors to dense [0, k) ranges."""
        return cls(predicted=dense_remap(predicted), truth=dense_remap(truth))

    @property
    def n(self) -> int:
        return self.predicted.size


@dataclass(frozen=True)
class PairCounts:
    """Point-pair agreement counts between two partitions.

    a: pairs grouped together in both partitions; b: pairs separated in both.
    """

    a: int
    b: int
    total_pairs: int


def contingency(pair: PartitionPair) -> np.ndarray:
    """k_x by k_y table; cell (i, j) counts points with predicted=i, truth=j."""
    kx = int(pair.predicted.max()) + 1
    ky = int(pair.truth.max()) + 1
    table = np.zeros((kx, ky), dtype=np.int64)
    np.add.at(table, (pair.predicted, pair.truth), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def nmi(pair: PartitionPair) -> float:
    """Mutual information over the arithmetic mean of the two entropies.

    Natural-log entropies (the log base cancels). Returns 1.0 when both
    partitions are single-cluster, 0.0 when the mutual information is zero.
    """
    table = contingency(pair)
    n = pair.n
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
    """(sum of C(n_ij,2), sum of C(row,2), sum of C(col,2)) as exact ints."""

    def comb2_sum(values) -> int:
        return sum(int(v) * (int(v) - 1) // 2 for v in values)

    return (
        comb2_sum(table.ravel()),
        comb2_sum(table.sum(axis=1)),
        comb2_sum(table.sum(axis=0)),
    )


def pair_counts(pair: PartitionPair) -> PairCounts:
    """Count agreeing pairs from the contingency table in O(k_x * k_y)."""
    if pair.n < 2:
        raise ValueError("pair counts require at least 2 points")
    cells, rows, cols = _pair_sums(contingency(pair))
    total = pair.n * (pair.n - 1) // 2
    return PairCounts(a=cells, b=total + cells - rows - cols, total_pairs=total)


def rand_index(pair: PartitionPair) -> float:
    """(a + b) / C(n, 2): the fraction of point pairs the partitions agree on."""
    counts = pair_counts(pair)
    return (counts.a + counts.b) / counts.total_pairs


def adjusted_rand_index(pair: PartitionPair) -> float:
    """Rand index adjusted by its permutation-model expectation.

    Closed form over the contingency margins: the expected pair agreement is
    E = sum_i C(row_i,2) * sum_j C(col_j,2) / C(n,2) and the maximum is the
    mean of the two marginal sums. Identical trivial partitions score 1.0.
    """
    if pair.n < 2:
        raise ValueError("adjusted rand index requires at least 2 points")
    cells, rows, cols = _pair_sums(contingency(pair))
    total = pair.n * (pair.n - 1) // 2
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
    assignments = np.asarray(assignments, dtype=np.int64)
    dense = dense_remap(assignments)
    counts = np.bincount(dense)
    return dense, counts


def silhouette(
    matrix: np.ndarray,
    assignments: np.ndarray,
    distances: np.ndarray | None = None,
) -> float:
    """Mean silhouette value: (d_n - d_w) / max(d_n, d_w) per point.

    d_w is the mean distance to the point's own cluster (itself excluded),
    d_n the mean distance to the nearest other cluster. Points in singleton
    clusters contribute 0. Pass `distances` (full n x n matrix) to reuse a
    precomputed pairwise-distance matrix. Without it, distance rows are
    computed one row block at a time and reduced to per-cluster sums at once,
    so memory is O(block * n + n * k) rather than O(n^2).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    dense, counts = _present_clusters(assignments)
    n = dense.size
    if matrix.shape[0] != n:
        raise ValueError("matrix and assignments disagree on the number of points")
    if n < 2:
        raise ValueError("silhouette requires at least 2 points")
    if counts.size < 2:
        raise ValueError("silhouette requires at least 2 distinct clusters")

    kp = counts.size
    onehot = np.zeros((n, kp))
    onehot[np.arange(n), dense] = 1.0
    # Cached or not, the sums are reduced over the same row blocks, so both
    # paths give the same bits when `distances` came from pairwise_distances.
    cluster_sums = np.empty((n, kp))
    for start, stop in row_blocks(n):
        if distances is None:
            rows = distance_rows(matrix, start, stop)
        else:
            rows = distances[start:stop]
        cluster_sums[start:stop] = rows @ onehot

    own_counts = counts[dense]
    with np.errstate(invalid="ignore", divide="ignore"):
        d_w = cluster_sums[np.arange(n), dense] / (own_counts - 1)
    mean_to = cluster_sums / counts[None, :]
    mean_to[np.arange(n), dense] = np.inf
    d_n = mean_to.min(axis=1)

    denom = np.maximum(d_n, d_w)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = (d_n - d_w) / denom
    s[own_counts == 1] = 0.0
    s[denom == 0.0] = 0.0
    value = float(s.mean())
    return min(1.0, max(-1.0, value))


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
        members = matrix[dense == j]
        centroids[j] = members.mean(axis=0)
        delta[j] = float(np.sqrt(((members - centroids[j]) ** 2).sum(axis=1)).mean())

    big_delta = np.sqrt(pairwise_sq_distances(centroids, centroids))
    off_diag = ~np.eye(kp, dtype=bool)
    if np.any(big_delta[off_diag] == 0.0):
        i, j = [int(v[0]) for v in np.nonzero((big_delta == 0.0) & off_diag)]
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


@dataclass(frozen=True)
class MetricReport:
    """The five metric values for one clustering against ground truth."""

    nmi: float
    ri: float
    ari: float
    silhouette: float
    davies_bouldin: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def evaluate_clustering(
    matrix: np.ndarray,
    assignments: np.ndarray,
    truth: np.ndarray,
    distances: np.ndarray | None = None,
) -> MetricReport:
    """All five metrics for one clustering (external ones against `truth`)."""
    pair = PartitionPair.from_labels(assignments, truth)
    return MetricReport(
        nmi=nmi(pair),
        ri=rand_index(pair),
        ari=adjusted_rand_index(pair),
        silhouette=silhouette(matrix, assignments, distances=distances),
        davies_bouldin=davies_bouldin(matrix, assignments),
    )
