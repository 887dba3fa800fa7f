"""k-means with k-means++ seeding and Lloyd iterations under Euclidean distance.

One call is one initialization; repetition belongs to the sweep layer.
Nearest-centroid ties break toward the lower centroid index, and a cluster
that empties out is re-seeded with the point farthest from its current
centroid, so a fit is fully determined by (matrix, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import check_distances, pairwise_sq_distances
from .seeding import derive_rng

_INIT_STREAM = 0x1217


@dataclass(frozen=True)
class KMeansConfig:
    """k, iteration budget, convergence tolerance and seed for one fit.

    tolerance is the total squared centroid movement below which Lloyd stops,
    in squared-distance units; None selects default_tolerance of the matrix
    being fitted.
    """

    k: int
    max_iterations: int = 300
    tolerance: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.tolerance is not None and self.tolerance < 0:
            raise ValueError(f"tolerance must be nonnegative, got {self.tolerance}")


@dataclass(frozen=True)
class ClusteringResult:
    """Assignments, centroids and objective from one k-means run.

    inertia is the within-cluster sum of squared Euclidean distances;
    inertia_history records it after each assignment step (the final entry is
    the returned inertia).
    """

    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    converged: bool
    inertia_history: tuple[float, ...] = field(repr=False, default=())


def default_tolerance(matrix: np.ndarray) -> float:
    """1e-4 times the mean per-feature variance of the float64 matrix.

    fit uses it when config.tolerance is None; a caller that fits one matrix
    many times can compute it once and pass it as the tolerance.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(matrix.var(axis=0).mean())
    if not np.isfinite(variance):
        raise ValueError(f"the mean feature variance is not finite ({variance})")
    return 1e-4 * variance


def kmeanspp_init(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator,
    row_sq_norms: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> np.ndarray:
    """Pick k distinct rows: first uniformly, the rest D^2-weighted.

    Each subsequent center is drawn with probability proportional to the
    squared distance to the nearest chosen center. Rows exactly equal to a
    chosen center get weight 0 (the |a|^2 + |b|^2 - 2ab expansion can leave
    them a rounding residue far from the origin), so no value is picked
    twice; if every remaining row has zero weight there are not enough
    distinct values and the call fails. The last pick's squared distances
    would never be read, so they are not computed.

    row_sq_norms, when given, is np.einsum("ij,ij->i", matrix, matrix) of the
    float64 matrix, passed to every pairwise_sq_distances call as its a_sq;
    it saves one pass over the matrix per chosen center and leaves the picks
    unchanged.

    distances, when given, must be pairwise_distances(matrix) of the same
    float64 matrix (ValueError unless it is n x n); a center's squared
    distances are then read as its row squared instead of computed, and the
    matrix is not written to. The square of the rounded root differs from
    the expansion in the last bits, and the weights drawn from differ with
    it; a pick can move only where a draw lands within rounding of a weight
    boundary, or where D^2 is itself rounding noise (points offset from the
    origin by more than about 1e4 times their spread).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if n < 1:
        raise ValueError("matrix must contain at least one point")
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if distances is not None:
        distances = check_distances(distances, n)

    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    if k == 1:
        return matrix[chosen[:1]].copy()

    if row_sq_norms is None:
        row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)

    def center_d2(idx: int) -> np.ndarray:
        """Squared distances of every row to row idx; rows equal to it get 0."""
        if distances is None:
            d2 = pairwise_sq_distances(matrix, matrix[idx : idx + 1], row_sq_norms)[:, 0]
        else:
            d2 = distances[idx] ** 2
        # Equal rows have equal norms, so the norms narrow the exact check.
        same = np.flatnonzero(row_sq_norms == row_sq_norms[idx])
        d2[same[(matrix[same] == matrix[idx]).all(axis=1)]] = 0.0
        return d2

    d2_min = center_d2(int(chosen[0]))
    for c in range(1, k):
        total = d2_min.sum()
        if not np.isfinite(total):
            raise ValueError(
                f"cannot pick center {c + 1} of {k}: the squared distances to the "
                f"chosen centers are not finite (their sum is {total})"
            )
        if total <= 0.0:
            raise ValueError(
                f"cannot pick {k} distinct centers: only {c} distinct point values available"
            )
        # choice() inverts the weights' cumulative sum with a right-sided
        # search, so it never returns a zero-weight row.
        chosen[c] = rng.choice(n, p=d2_min / total)
        if c + 1 < k:
            np.minimum(d2_min, center_d2(int(chosen[c])), out=d2_min)
    return matrix[chosen].copy()


def fit(
    matrix: np.ndarray,
    config: KMeansConfig,
    initial_centers: np.ndarray | None = None,
    distances: np.ndarray | None = None,
) -> ClusteringResult:
    """Run Lloyd iterations from a k-means++ (or explicitly given) start.

    distances, when given, must be pairwise_distances(matrix) of the same
    float64 matrix (ValueError unless it is n x n); k-means++ reads its
    centers' squared distances from it (see kmeanspp_init). Lloyd's steps do
    not use it.

    Alternates nearest-center assignment and centroid-mean updates until the
    total squared centroid movement drops to the tolerance or the iteration
    budget runs out, then recomputes assignments against the final centroids.

    An assignment equal to the previous one, after an update that re-seeded
    no empty cluster, would be followed by an update that reproduces the same
    centroids bit for bit (movement 0) and a final pass that reproduces this
    assignment; the fit stops there and counts that update as its last
    iteration, so the result is the same as running those passes.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("matrix must be a non-empty 2-D array")
    n, d = matrix.shape
    k = config.k
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    if distances is not None:
        distances = check_distances(distances, n)

    tolerance = config.tolerance
    if tolerance is None:
        tolerance = default_tolerance(matrix)

    # Squared row norms, shared by every distance call of this fit.
    row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)
    if initial_centers is None:
        rng = derive_rng(config.seed, _INIT_STREAM)
        centers = kmeanspp_init(matrix, k, rng, row_sq_norms, distances)
    else:
        centers = np.asarray(initial_centers, dtype=np.float64).copy()
        if centers.shape != (k, d):
            raise ValueError(f"initial_centers must have shape {(k, d)}, got {centers.shape}")

    history: list[float] = []
    converged = False
    iterations = 0
    # The assignment the current centers are the exact means of, if any.
    settled = None
    for _ in range(config.max_iterations):
        d2 = pairwise_sq_distances(matrix, centers, row_sq_norms)
        assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assignments].sum()))
        iterations += 1
        repeated = settled is not None and np.array_equal(assignments, settled)
        if repeated:
            converged = True
            break

        # Each cluster's rows in index order, as a boolean mask would give
        # them, so the sums and means round exactly like matrix[mask].mean().
        counts = np.bincount(assignments, minlength=k)
        order = np.argsort(assignments, kind="stable")
        stops = np.cumsum(counts)
        new_centers = np.empty_like(centers)
        for j in range(k):
            if counts[j] > 0:
                rows = order[stops[j] - counts[j] : stops[j]]
                new_centers[j] = np.add.reduce(matrix[rows], axis=0)
            else:
                # Re-seed an emptied cluster with the point farthest from it.
                new_centers[j] = matrix[int(np.argmax(d2[:, j]))]
        filled = counts > 0
        new_centers[filled] /= counts[filled, None]

        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        # A non-finite shift means non-finite centers, whose repeat would not
        # reproduce a zero movement.
        settled = assignments if filled.all() and np.isfinite(shift) else None
        if shift <= tolerance:
            converged = True
            break

    if not repeated:
        d2 = pairwise_sq_distances(matrix, centers, row_sq_norms)
        assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    history.append(inertia)

    return ClusteringResult(
        assignments=assignments,
        centroids=centers,
        inertia=inertia,
        iterations=iterations,
        converged=converged,
        inertia_history=tuple(history),
    )
