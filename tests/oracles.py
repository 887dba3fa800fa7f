"""Brute-force reference implementations used only by the test suite.

Everything here favors obviousness over speed: O(n^2) pair enumeration,
dictionary-based entropy sums, and explicit double loops over clusters, so
the production implementations can be checked against independently derived
values.
"""

from __future__ import annotations

import math
import types
from collections import Counter

import numpy as np

from cluster_sense.distance import pairwise_sq_distances
from cluster_sense.perturb import NoiseKind
from cluster_sense.seeding import derive_rng, derive_seed

# Key of the per-column noise stream: column j of the noise sequence `seed`
# draws from derive_rng(*seed, NOISE_COLUMN_STREAM, j).
NOISE_COLUMN_STREAM = 0xC01

# The sweep's seed scheme, written out from its definition rather than read
# from the package. A cell's k-means seeds are derive_seed(master seed,
# dataset index, noise code, scaling code, level, repeat), with the baseline
# placeholder for the noise code at level 0; a fit's k-means++ draws come
# from derive_rng(seed, KMEANS_INIT_STREAM). A curve's noise sequence seed is
# derive_seed(master seed, dataset index, noise code, NOISE_SEQUENCE_STREAM).
NOISE_CODES = {"gaussian": 0, "uniform": 1}
SCALING_CODES = {"none": 0, "centered": 1, "standardized": 2}
BASELINE_NOISE_CODE = 0x0B5E
NOISE_SEQUENCE_STREAM = 0x0153
KMEANS_INIT_STREAM = 0x1217
KMEANS_MAX_ITERATIONS = 300
# A k-means++ draw this close (relative) to a weight boundary could fall on
# either side under the package's rounding of the squared distances.
DRAW_MARGIN = 1e-9


class DrawNearBoundary(AssertionError):
    """A k-means++ draw landed within DRAW_MARGIN of a weight boundary: the
    fixture cannot tell the oracle from the package there, so it needs other
    data or seeds. This says nothing about the package."""


def pair_enumeration(predicted, truth) -> tuple[int, int, int]:
    """(a, b, total): pairs together in both, apart in both, all pairs."""
    n = len(predicted)
    a = b = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = predicted[i] == predicted[j]
            same_t = truth[i] == truth[j]
            if same_p and same_t:
                a += 1
            elif not same_p and not same_t:
                b += 1
    return a, b, n * (n - 1) // 2


def rand_index_oracle(predicted, truth) -> float:
    a, b, total = pair_enumeration(predicted, truth)
    return (a + b) / total


def ari_oracle(predicted, truth) -> float:
    """ARI from enumerated pair counts via the permutation-model adjustment."""
    n = len(predicted)
    a = b = together_p = together_t = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = predicted[i] == predicted[j]
            same_t = truth[i] == truth[j]
            together_p += same_p
            together_t += same_t
            if same_p and same_t:
                a += 1
            elif not same_p and not same_t:
                b += 1
    total = n * (n - 1) // 2
    # Same clearing of denominators as the implementation: both sides then
    # divide identical exact integers, so equality can be checked exactly.
    numerator = 2 * (a * total - together_p * together_t)
    denominator = total * (together_p + together_t) - 2 * together_p * together_t
    if denominator == 0:
        return 1.0
    return numerator / denominator


def nmi_oracle(predicted, truth) -> float:
    """Direct summation of H(X), H(Y) and MI(X, Y) from label counts."""
    n = len(predicted)
    px = Counter(predicted)
    py = Counter(truth)
    pxy = Counter(zip(predicted, truth))
    h_x = -sum((c / n) * math.log(c / n) for c in px.values())
    h_y = -sum((c / n) * math.log(c / n) for c in py.values())
    if h_x == 0.0 and h_y == 0.0:
        return 1.0
    mi = sum(
        (c / n) * math.log((c / n) / ((px[x] / n) * (py[y] / n)))
        for (x, y), c in pxy.items()
    )
    if mi <= 0.0:
        return 0.0
    return min(1.0, mi / ((h_x + h_y) / 2.0))


def nmi_oracle_base2(predicted, truth) -> float:
    """Same as nmi_oracle but with base-2 logs; the base must cancel."""
    n = len(predicted)
    px = Counter(predicted)
    py = Counter(truth)
    pxy = Counter(zip(predicted, truth))
    h_x = -sum((c / n) * math.log2(c / n) for c in px.values())
    h_y = -sum((c / n) * math.log2(c / n) for c in py.values())
    if h_x == 0.0 and h_y == 0.0:
        return 1.0
    mi = sum(
        (c / n) * math.log2((c / n) / ((px[x] / n) * (py[y] / n)))
        for (x, y), c in pxy.items()
    )
    if mi <= 0.0:
        return 0.0
    return min(1.0, mi / ((h_x + h_y) / 2.0))


def euclidean(p, q) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q)))


def silhouette_oracle(points, assignments) -> float:
    """Definitional per-point silhouette with explicit loops."""
    n = len(points)
    clusters = sorted(set(assignments))
    members = {c: [i for i in range(n) if assignments[i] == c] for c in clusters}
    values = []
    for i in range(n):
        own = assignments[i]
        if len(members[own]) == 1:
            values.append(0.0)
            continue
        d_w = sum(euclidean(points[i], points[j]) for j in members[own] if j != i) / (
            len(members[own]) - 1
        )
        d_n = min(
            sum(euclidean(points[i], points[j]) for j in members[c]) / len(members[c])
            for c in clusters
            if c != own
        )
        denom = max(d_n, d_w)
        values.append(0.0 if denom == 0.0 else (d_n - d_w) / denom)
    return sum(values) / n


def davies_bouldin_oracle(points, assignments) -> float:
    """Definitional Davies-Bouldin with explicit double loops."""
    clusters = sorted(set(assignments))
    centroids = {}
    delta = {}
    for c in clusters:
        members = [points[i] for i in range(len(points)) if assignments[i] == c]
        centroid = [sum(col) / len(members) for col in zip(*members)]
        centroids[c] = centroid
        delta[c] = sum(euclidean(p, centroid) for p in members) / len(members)
    worst = []
    for i in clusters:
        ratios = []
        for j in clusters:
            if i == j:
                continue
            gap = euclidean(centroids[i], centroids[j])
            if gap == 0.0:
                return math.inf
            ratios.append((delta[i] + delta[j]) / gap)
        worst.append(max(ratios))
    return sum(worst) / len(clusters)


def lloyd_reference(matrix, centers, max_iterations, tolerance):
    """Lloyd iterations run to the end of the budget or tolerance, every pass
    included: one boolean-mask mean per cluster in each update, then a final
    assignment pass against the last centroids.

    Returns (assignments, centroids, inertia, iterations, converged,
    inertia_history, reseeds), which kmeans.fit must reproduce bit for bit
    from the same centers and tolerance; reseeds counts the emptied clusters
    re-seeded over every update.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64).copy()
    n = matrix.shape[0]
    k = centers.shape[0]
    row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)
    history = []
    converged = False
    iterations = 0
    reseeds = 0
    for _ in range(max_iterations):
        d2 = pairwise_sq_distances(matrix, centers, row_sq_norms)
        assignments = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), assignments].sum()))

        new_centers = np.empty_like(centers)
        counts = np.bincount(assignments, minlength=k)
        for j in range(k):
            if counts[j] > 0:
                new_centers[j] = matrix[assignments == j].mean(axis=0)
            else:
                new_centers[j] = matrix[int(np.argmax(d2[:, j]))]
                reseeds += 1

        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        iterations += 1
        if shift <= tolerance:
            converged = True
            break

    d2 = pairwise_sq_distances(matrix, centers, row_sq_norms)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    history.append(inertia)
    return assignments, centers, inertia, iterations, converged, tuple(history), reseeds


def _noise_column_rng(seed, j):
    parts = seed if isinstance(seed, tuple) else (seed,)
    return derive_rng(*parts, NOISE_COLUMN_STREAM, j)


def _gaussian_params(spec, rng) -> tuple[float, float]:
    eta = rng.uniform()
    sign = 1 if rng.uniform() >= 0.5 else -1
    eta2 = rng.uniform()
    sign2 = 1 if rng.uniform() >= 0.5 else -1
    return sign * (spec.mu + spec.sigma) * eta, spec.sigma * (1.0 + sign2 * eta2)


def gaussian_column_params(spec, seed, j) -> tuple[float, float]:
    """(mu_r, sigma_r) of Gaussian noise column j of the sequence `seed`.

    The paper's rule, drawn in the order eta, sign, eta2, sign2, where eta
    and eta2 are Uniform[0, 1) and each sign is +1 when its own Uniform[0, 1)
    draw is >= 0.5, else -1: mu_r = sign * (mu + sigma) * eta and
    sigma_r = sigma * (1 + sign2 * eta2).
    """
    return _gaussian_params(spec, _noise_column_rng(seed, j))


def noise_column(spec, seed, j, n) -> np.ndarray:
    """Noise column j of the sequence `seed` (an int or a tuple of ints), n rows,
    drawn one scalar at a time.

    A uniform column is Uniform(-(mu + 2 sigma), mu + 2 sigma). A Gaussian
    column is Normal(mu_r, sigma_r), with (mu_r, sigma_r) drawn first from the
    same stream as in gaussian_column_params.
    """
    rng = _noise_column_rng(seed, j)
    if spec.kind is NoiseKind.UNIFORM:
        bound = spec.mu + 2.0 * spec.sigma
        return np.array([rng.uniform(-bound, bound) for _ in range(n)])
    mu_r, sigma_r = _gaussian_params(spec, rng)
    return np.array([rng.normal(mu_r, sigma_r) for _ in range(n)])


def scaled_rows(rows, scaling: str) -> list[list[float]]:
    """The scaling formulas, one column at a time: none copies; centered
    subtracts the column's mean; standardized then divides by the column's
    population standard deviation, and a constant column becomes 0."""
    n = len(rows)
    out = [list(row) for row in rows]
    if scaling == "none":
        return out
    for j in range(len(rows[0])):
        column = [row[j] for row in rows]
        if scaling == "standardized" and all(x == column[0] for x in column):
            for row in out:
                row[j] = 0.0
            continue
        mean = math.fsum(column) / n
        scale = 1.0
        if scaling == "standardized":
            scale = math.sqrt(math.fsum((x - mean) ** 2 for x in column) / n)
        for row, x in zip(out, column):
            row[j] = (x - mean) / scale
    return out


def _sq_euclidean(p, q) -> float:
    return math.fsum((a - b) ** 2 for a, b in zip(p, q))


def kmeanspp_oracle(rows, k: int, seed: int) -> list[int]:
    """Row indices of the k-means++ centers of the fit seeded `seed`.

    The first center is a uniform row index. Each later one is drawn with
    probability proportional to a row's squared distance to its nearest
    chosen center, by one uniform draw u in [0, 1): the pick is the first
    row whose running weight, over the total, exceeds u. DrawNearBoundary
    is raised when u lies within DRAW_MARGIN of any running weight.
    """
    rng = derive_rng(seed, KMEANS_INIT_STREAM)
    n = len(rows)
    chosen = [int(rng.integers(n))]
    nearest = [_sq_euclidean(row, rows[chosen[0]]) for row in rows]
    while len(chosen) < k:
        total = math.fsum(nearest)
        u = rng.random()
        running = 0.0
        pick = None
        for i, weight in enumerate(nearest):
            running += weight
            bound = running / total
            if abs(bound - u) <= DRAW_MARGIN * max(bound, u):
                raise DrawNearBoundary(
                    f"k-means++ draw {u!r} for center {len(chosen) + 1} of seed {seed} is "
                    f"within {DRAW_MARGIN} of row {i}'s weight boundary {bound!r}"
                )
            if pick is None and bound > u:
                pick = i
        chosen.append(pick)
        nearest = [min(d, _sq_euclidean(row, rows[pick])) for d, row in zip(nearest, rows)]
    return chosen


def _lloyd_tolerance(rows) -> float:
    """1e-4 times the mean over columns of the column's population variance."""
    n = len(rows)
    variances = []
    for column in zip(*rows):
        mean = math.fsum(column) / n
        variances.append(math.fsum((x - mean) ** 2 for x in column) / n)
    return 1e-4 * math.fsum(variances) / len(variances)


def cell_values(
    points,
    labels,
    *,
    master_seed: int,
    dataset_index: int,
    kind: NoiseKind,
    scaling,
    level: int,
    repeats: int,
    redraw: bool,
) -> list[dict]:
    """One sweep cell from the definitions: per repeat, the scaled matrix it
    clustered, the k-means labeling and each metric's value.

    The baseline gets `level` noise columns (none at level 0) of the curve's
    noise sequence, or, with `redraw`, of the sequence (curve seed, repeat),
    drawn with noise_column from the pooled mean and population std of the
    baseline's entries; the scaling's formula comes next (scaled_rows). k is
    the number of distinct labels. k-means++ (kmeanspp_oracle) seeds Lloyd
    (lloyd_reference, at the fit's default tolerance and iteration budget),
    and the metric oracles score the labeling against `labels`.
    """
    points = np.asarray(points, dtype=np.float64)
    truth = [int(label) for label in labels]
    n = len(truth)
    k = len(set(truth))
    entries = [float(x) for x in points.ravel()]
    mu = math.fsum(entries) / len(entries)
    sigma = math.sqrt(math.fsum((x - mu) ** 2 for x in entries) / len(entries))
    spec = types.SimpleNamespace(kind=kind, mu=mu, sigma=sigma)
    sequence = derive_seed(
        master_seed, dataset_index, NOISE_CODES[kind.value], NOISE_SEQUENCE_STREAM
    )
    noise_code = NOISE_CODES[kind.value] if level > 0 else BASELINE_NOISE_CODE
    out = []
    for repeat in range(repeats):
        seed = derive_seed(
            master_seed, dataset_index, noise_code, SCALING_CODES[scaling.value], level, repeat
        )
        noise_seed = (sequence, repeat) if redraw else sequence
        columns = [noise_column(spec, noise_seed, j, n) for j in range(level)]
        rows = [[*points[i], *(column[i] for column in columns)] for i in range(n)]
        rows = scaled_rows(rows, scaling.value)
        matrix = np.array(rows)
        centers = matrix[kmeanspp_oracle(rows, k, seed)]
        tolerance = _lloyd_tolerance(rows)
        labeling = lloyd_reference(matrix, centers, KMEANS_MAX_ITERATIONS, tolerance)[0]
        predicted = [int(c) for c in labeling]
        values = {
            "nmi": nmi_oracle(predicted, truth),
            "ri": rand_index_oracle(predicted, truth),
            "ari": ari_oracle(predicted, truth),
            "silhouette": silhouette_oracle(rows, predicted),
            "davies_bouldin": davies_bouldin_oracle(rows, predicted),
        }
        out.append({"matrix": matrix, "labeling": labeling, "values": values})
    return out
