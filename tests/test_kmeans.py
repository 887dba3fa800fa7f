"""k-means++ initialization and Lloyd iteration tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cluster_sense import distance, kmeans
from cluster_sense.dataset import compute_stats, generate_dim_like, load_dataset
from cluster_sense.distance import pairwise_distances
from cluster_sense.kmeans import (
    ClusteringResult,
    KMeansConfig,
    default_tolerance,
    fit,
    kmeanspp_init,
)
from cluster_sense.perturb import NoiseKind, NoiseSpec, append_noise
from cluster_sense.scale import ScalingKind, apply_scaling
from cluster_sense.seeding import derive_rng
from oracles import lloyd_reference

# Property tests run a fixed example sequence and keep no example database,
# so every run checks the same cases.
FIXED_EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _assert_same_fit(a, b):
    """Two ClusteringResults equal field for field, floats bit for bit."""
    assert np.array_equal(a.assignments, b.assignments)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert a.inertia == b.inertia
    assert a.iterations == b.iterations
    assert a.converged == b.converged
    assert a.reseeds == b.reseeds
    assert a.inertia_history == b.inertia_history


class TestKMeansConfig:
    def test_defaults(self):
        config = KMeansConfig(k=16)
        assert config.max_iterations == 300
        assert config.tolerance is None
        assert config.seed == 0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KMeansConfig(k=0)
        with pytest.raises(ValueError):
            KMeansConfig(k=2, max_iterations=0)
        with pytest.raises(ValueError):
            KMeansConfig(k=2, tolerance=-1.0)


class TestKMeansPlusPlus:
    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError) as raised:
            kmeanspp_init(np.zeros((0, 2)), 1, derive_rng(0))
        assert str(raised.value) == "matrix must contain at least one point"

    def test_k_equals_n_selects_every_point(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(7, 3))
        centers = kmeanspp_init(matrix, 7, derive_rng(1))
        order = np.lexsort(matrix.T)
        center_order = np.lexsort(centers.T)
        assert np.array_equal(centers[center_order], matrix[order])

    def test_k_one_picks_a_point_uniformly(self):
        matrix = np.arange(10, dtype=np.float64)[:, None]
        picks = [kmeanspp_init(matrix, 1, derive_rng(s))[0, 0] for s in range(3000)]
        counts = np.bincount(np.array(picks, dtype=np.int64), minlength=10)
        assert counts.min() > 200  # roughly uniform over 10 values

    def test_second_center_crosses_to_far_blob(self):
        # Two blobs of exact duplicates: same-blob rows have D^2 = 0, so the
        # second pick must come from the opposite blob every time.
        matrix = np.vstack([np.zeros((100, 2)), np.full((100, 2), 100.0)])
        for seed in range(10_000):
            centers = kmeanspp_init(matrix, 2, derive_rng(seed))
            assert abs(centers[0, 0] - centers[1, 0]) == 100.0

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="k must be"):
            kmeanspp_init(np.zeros((3, 2)), 4, derive_rng(0))

    def test_rejects_identical_points_with_k_two(self):
        with pytest.raises(ValueError, match="distinct"):
            kmeanspp_init(np.ones((5, 2)), 2, derive_rng(0))

    def test_weights_follow_squared_distance(self):
        # Points at 0 (first center), 1, and 3: after choosing 0, the D^2
        # weights are 1 and 9, so 3 should be picked ~90% of the time.
        matrix = np.array([[0.0], [1.0], [3.0]])
        picks = []
        for seed in range(4000):
            rng = derive_rng(seed)
            centers = kmeanspp_init(matrix, 2, rng)
            if centers[0, 0] == 0.0:
                picks.append(centers[1, 0])
        frac_far = np.mean(np.array(picks) == 3.0)
        assert 0.85 < frac_far < 0.95

    def test_precomputed_row_norms_leave_picks_unchanged(self):
        matrix = generate_dim_like(48, 16, 8, 10.0, seed=4).points
        row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)
        for seed in range(5):
            plain = kmeanspp_init(matrix, 16, derive_rng(seed))
            shared = kmeanspp_init(matrix, 16, derive_rng(seed), row_sq_norms)
            assert shared.tobytes() == plain.tobytes()


@st.composite
def _matrix_with_duplicates(draw):
    """A row-shuffled matrix of repeated distinct rows, a k <= the number of
    distinct rows, and a seed. The rows sit up to 1e7 spreads from the origin.
    """
    distinct = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.integers(-3, 3))
    d = draw(st.integers(1, 8))
    offset = draw(st.integers(0, 100)) * 10.0 ** draw(st.integers(0, 5))
    values = spread * (rng.normal(size=(distinct, d)) + offset)
    copies = draw(st.lists(st.integers(1, 5), min_size=distinct, max_size=distinct))
    matrix = np.repeat(values, copies, axis=0)[rng.permutation(sum(copies))]
    return matrix, draw(st.integers(1, distinct)), draw(st.integers(0, 2**32 - 1))


def _d2_sources(matrix):
    """kmeanspp_init keyword arguments for each source of squared distances:
    its own expansion, and the rows of a precomputed distance matrix."""
    return [{}, {"distances": pairwise_distances(matrix)}]


class TestKMeansPlusPlusDistinct:
    @FIXED_EXAMPLES
    @given(_matrix_with_duplicates())
    def test_picks_are_pairwise_distinct(self, case):
        # Generator.choice never returns a zero-weight index, so no row that
        # duplicates a chosen center is picked again, whichever the D^2 source.
        matrix, k, seed = case
        for source in _d2_sources(matrix):
            centers = kmeanspp_init(matrix, k, derive_rng(seed), **source)
            assert len(np.unique(centers, axis=0)) == k

    def test_far_duplicates_are_never_picked_twice(self):
        # Four distinct 16-feature rows offset by 1e7, each repeated 50 times.
        # The expansion leaves a duplicate of a chosen center a rounding
        # residue of D^2 well above 0; its weight must still be 0.
        for dataset in range(10):
            rng = np.random.default_rng(dataset)
            values = rng.normal(size=(4, 16)) + 1e7
            matrix = np.repeat(values, 50, axis=0)[rng.permutation(200)]
            for source in _d2_sources(matrix):
                for seed in range(100):
                    centers = kmeanspp_init(matrix, 4, derive_rng(seed), **source)
                    assert len(np.unique(centers, axis=0)) == 4

    @pytest.mark.parametrize("scaling", list(ScalingKind))
    def test_distance_matrix_leaves_dim_like_fits_unchanged(self, scaling):
        # The sweep's regime: a Dim-style matrix with noise columns, scaled.
        # There the squared rows of the distance matrix pick the same centers
        # as the expansion, so the whole fit is the same.
        base = generate_dim_like(32, 16, 16, 10.0, seed=2)
        stats = compute_stats(base)
        for kind, level in ((NoiseKind.GAUSSIAN, 32), (NoiseKind.UNIFORM, 96)):
            spec = NoiseSpec(kind, stats.mu, stats.sigma, seed=5)
            columns = append_noise(base, spec, level)
            matrix = apply_scaling(np.hstack([base.points, columns]), scaling)
            distances = pairwise_distances(matrix)
            for seed in range(4):
                config = KMeansConfig(k=16, seed=seed)
                plain = fit(matrix, config)
                shared = fit(matrix, config, distances=distances)
                _assert_same_fit(shared, plain)

    @pytest.mark.parametrize("n, d", [(1924, 266), (2444, 229), (2741, 213)])
    def test_fit_at_two_blas_threads_equals_pinned_fit(self, blas_threads, n, d):
        # n above one distance block and not a multiple of 8, d wide enough
        # for OpenBLAS to thread k-means++'s one-row products, and points so
        # far from the origin that D^2 is rounding noise: a product rounded
        # on two threads moves picks here.
        matrix = np.random.default_rng(n).normal(size=(n, d)) + 1e8
        config = KMeansConfig(k=16, seed=5, max_iterations=5)
        threaded = fit(matrix, config)
        with distance._single_blas_thread():
            pinned = fit(matrix, config)
        _assert_same_fit(threaded, pinned)


class TestKMeansPlusPlusOverflow:
    @pytest.mark.parametrize("columns", [2, 1])
    def test_squared_distances_that_are_not_finite_are_named(self, tmp_path, columns):
        # The 4-row file of entries at +-1e308. Their squared distances
        # overflow: to nan with both columns, to inf with the first alone.
        # The pick must say so in a ValueError before it divides by their
        # sum, so that numpy prints no "invalid value encountered in divide".
        data, labels = tmp_path / "d.txt", tmp_path / "l.txt"
        data.write_text("1e308 1e308\n-1e308 -1e308\n1e308 -1e308\n-1e308 1e308\n")
        labels.write_text("0\n0\n1\n1\n")
        matrix = load_dataset(data, labels).points[:, :columns]
        with np.errstate(over="ignore", invalid="ignore"):
            sources = _d2_sources(matrix)
        for source in sources:
            for seed in range(4):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(ValueError, match="squared distances .* are not finite"):
                        kmeanspp_init(matrix, 2, derive_rng(seed), **source)
                assert [w for w in caught if "divide" in str(w.message)] == []


class TestDistancesShape:
    MATRIX = np.arange(12.0).reshape(6, 2)

    @pytest.mark.parametrize("shape", [(6, 5), (5, 5), (6,), (6, 6, 1)])
    def test_wrong_shape_is_rejected(self, shape):
        distances = np.zeros(shape)
        with pytest.raises(ValueError, match="distances must have shape"):
            kmeanspp_init(self.MATRIX, 2, derive_rng(0), distances=distances)
        with pytest.raises(ValueError, match="distances must have shape"):
            fit(self.MATRIX, KMeansConfig(k=2), distances=distances)

    def test_matrix_is_only_read(self):
        distances = pairwise_distances(self.MATRIX)
        before = distances.copy()
        fit(self.MATRIX, KMeansConfig(k=3), distances=distances)
        assert distances.tobytes() == before.tobytes()


class TestFit:
    def test_initial_centers_of_another_shape_rejected(self):
        matrix = np.arange(12.0).reshape(6, 2)
        with pytest.raises(ValueError) as raised:
            fit(matrix, KMeansConfig(k=2), initial_centers=np.zeros((3, 2)))
        assert str(raised.value) == "initial_centers must have shape (2, 2), got (3, 2)"

    def test_two_blob_inertia(self):
        matrix = np.array([[0.0], [0.1], [10.0], [10.1]])
        result = fit(matrix, KMeansConfig(k=2, seed=0))
        assert result.converged
        assert result.inertia == pytest.approx(0.01, abs=1e-12)
        assert result.assignments[0] == result.assignments[1]
        assert result.assignments[2] == result.assignments[3]
        assert result.assignments[0] != result.assignments[2]

    def test_k_equals_n_zero_inertia(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(6, 2))
        result = fit(matrix, KMeansConfig(k=6, seed=1))
        assert result.inertia == 0.0
        assert sorted(result.assignments.tolist()) == list(range(6))

    def test_deterministic_per_seed(self):
        ds = generate_dim_like(8, 4, 32, 10.0, seed=2)
        a = fit(ds.points, KMeansConfig(k=4, seed=9))
        b = fit(ds.points, KMeansConfig(k=4, seed=9))
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_inertia_history_non_increasing(self):
        ds = generate_dim_like(6, 5, 40, 3.0, seed=4)
        for seed in range(8):
            result = fit(ds.points, KMeansConfig(k=5, seed=seed))
            history = np.array(result.inertia_history)
            assert history.size >= 2
            assert np.all(np.diff(history) <= 1e-9 * (1.0 + history[0]))
            assert result.inertia == history[-1]

    def test_inertia_matches_recomputation(self):
        ds = generate_dim_like(5, 4, 30, 5.0, seed=6)
        result = fit(ds.points, KMeansConfig(k=4, seed=2))
        diffs = ds.points - result.centroids[result.assignments]
        recomputed = float((diffs**2).sum())
        assert result.inertia == pytest.approx(recomputed, rel=1e-6)

    def test_assignments_are_nearest_centroid(self):
        ds = generate_dim_like(5, 4, 30, 5.0, seed=7)
        result = fit(ds.points, KMeansConfig(k=4, seed=3))
        d2 = ((ds.points[:, None, :] - result.centroids[None, :, :]) ** 2).sum(axis=2)
        best = d2[np.arange(ds.n_points), result.assignments]
        assert np.all(best <= d2.min(axis=1) + 1e-12)

    def test_tie_breaks_toward_lower_index(self):
        matrix = np.array([[0.0], [2.0], [1.0]])
        centers = np.array([[0.0], [2.0]])
        config = KMeansConfig(k=2, max_iterations=1, tolerance=0.0)
        result = fit(matrix, config, initial_centers=centers)
        # The middle point is equidistant from both initial centers. If the
        # tie goes to cluster 0, the one allowed update moves center 0 to
        # mean(0, 1) = 0.5 and leaves center 1 at 2.
        assert result.centroids[0, 0] == pytest.approx(0.5)
        assert result.centroids[1, 0] == pytest.approx(2.0)

    def test_explicit_initial_centers_permutation_equivariance(self):
        ds = generate_dim_like(4, 3, 20, 8.0, seed=11)
        idx = np.array([0, 25, 50])
        config = KMeansConfig(k=3, max_iterations=40, tolerance=0.0)
        base = fit(ds.points, config, initial_centers=ds.points[idx])

        perm = np.random.default_rng(5).permutation(ds.n_points)
        permuted_points = ds.points[perm]
        # The same physical rows serve as initial centers after permutation.
        permuted_result = fit(permuted_points, config, initial_centers=ds.points[idx])
        assert np.array_equal(permuted_result.assignments, base.assignments[perm])

    def test_scale_free_assignments(self):
        ds = generate_dim_like(4, 3, 20, 8.0, seed=12)
        idx = np.array([3, 33, 47])
        config = KMeansConfig(k=3, max_iterations=30, tolerance=0.0)
        raw = fit(ds.points, config, initial_centers=ds.points[idx])
        # Doubling is exact in binary floating point, so distances scale by
        # exactly 4 and every argmin is preserved bit for bit.
        scaled = fit(ds.points * 2.0, config, initial_centers=ds.points[idx] * 2.0)
        assert np.array_equal(raw.assignments, scaled.assignments)

    def test_empty_cluster_repair(self):
        matrix = np.array([[0.0], [1.0], [10.0], [11.0]])
        # Both initial centers sit beyond the data, so one of them receives
        # no members on the first pass and must be re-seeded.
        centers = np.array([[100.0], [200.0]])
        result = fit(matrix, KMeansConfig(k=2, seed=0), initial_centers=centers)
        assert result.converged
        assert set(result.assignments.tolist()) == {0, 1}
        assert result.inertia == pytest.approx(1.0, abs=1e-9)
        assert result.reseeds == 1

    def test_default_tolerance_matches_explicit(self):
        ds = generate_dim_like(6, 4, 25, 10.0, seed=13)
        explicit = 1e-4 * float(ds.points.var(axis=0).mean())
        assert default_tolerance(ds.points) == explicit
        auto = fit(ds.points, KMeansConfig(k=4, seed=5))
        manual = fit(ds.points, KMeansConfig(k=4, seed=5, tolerance=explicit))
        assert np.array_equal(auto.assignments, manual.assignments)
        assert auto.iterations == manual.iterations

    def test_default_tolerance_rejects_a_variance_that_overflows(self):
        # Entries at +-1e308: the squared deviations overflow. The cell that
        # fits this matrix degrades before its distances are built.
        matrix = np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="feature variance is not finite"):
                default_tolerance(matrix)

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            fit(np.zeros((3, 2)), KMeansConfig(k=4))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            fit(np.zeros((0, 2)), KMeansConfig(k=1))

    def test_result_is_clustering_result(self):
        ds = generate_dim_like(4, 2, 10, 10.0, seed=1)
        result = fit(ds.points, KMeansConfig(k=2, seed=0))
        assert isinstance(result, ClusteringResult)
        assert result.centroids.shape == (2, 4)
        assert result.iterations >= 1


@st.composite
def _lloyd_case(draw):
    """A matrix (possibly with duplicate rows), a fit config, and explicit
    initial centers or None for a k-means++ start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = draw(st.integers(1, 40))
    d = draw(st.integers(1, 6))
    values = rng.normal(size=(distinct, d)) * 10.0 ** draw(st.integers(-2, 2))
    if draw(st.booleans()):
        # A few well-separated groups, so most fits settle quickly.
        groups = draw(st.integers(1, 5))
        values += 20.0 * rng.normal(size=(groups, d))[rng.integers(0, groups, distinct)]
    copies = rng.integers(1, draw(st.integers(1, 4)) + 1, size=distinct)
    matrix = np.repeat(values, copies, axis=0)[rng.permutation(int(copies.sum()))]
    k = draw(st.integers(1, min(distinct, 6)))
    start = draw(st.sampled_from(["kmeans++", "rows", "far"]))
    if start == "rows":
        centers = matrix[rng.choice(matrix.shape[0], size=k, replace=False)]
    elif start == "far":
        # Every point is nearest to center 0, so the first update re-seeds
        # the k - 1 others.
        far = np.abs(matrix).max() + 1e3
        centers = np.repeat(far * (1.0 + np.arange(k))[:, None], d, axis=1)
    else:
        centers = None
    config = KMeansConfig(
        k=k,
        max_iterations=draw(st.sampled_from([1, 2, 3, 4, 300])),
        tolerance=draw(st.sampled_from([None, 0.0, 1e-3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return matrix, config, centers


def _count_distance_calls(monkeypatch):
    calls = []
    original = kmeans.pairwise_sq_distances

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(kmeans, "pairwise_sq_distances", counted)
    return calls


class TestLloydReference:
    @FIXED_EXAMPLES
    @given(_lloyd_case())
    def test_fit_matches_every_pass_reference_bit_for_bit(self, case):
        matrix, config, centers = case
        result = fit(matrix, config, initial_centers=centers)
        if centers is None:
            row_sq_norms = np.einsum("ij,ij->i", matrix, matrix)
            rng = derive_rng(config.seed, kmeans._INIT_STREAM)
            centers = kmeanspp_init(matrix, config.k, rng, row_sq_norms)
        tolerance = config.tolerance
        if tolerance is None:
            tolerance = 1e-4 * float(matrix.var(axis=0).mean())
        assignments, centroids, inertia, iterations, converged, history, reseeds = (
            lloyd_reference(matrix, centers, config.max_iterations, tolerance)
        )
        assert np.array_equal(result.assignments, assignments)
        assert result.centroids.tobytes() == centroids.tobytes()
        assert result.inertia == inertia
        assert result.iterations == iterations
        assert result.converged == converged
        assert result.inertia_history == history
        assert result.reseeds == reseeds

    def test_non_finite_data_is_never_settled(self):
        # An infinite entry makes the centroid movement NaN, which never meets
        # the tolerance: the reference runs out its budget, and so must fit,
        # although every assignment repeats the first.
        matrix = np.array([[np.inf, 0.0], [1.0, 2.0], [3.0, 4.0]])
        config = KMeansConfig(k=1, max_iterations=5, tolerance=0.0)
        with np.errstate(invalid="ignore"):
            result = fit(matrix, config, initial_centers=matrix[1:2])
            expected = lloyd_reference(matrix, matrix[1:2], 5, 0.0)
        assert (result.iterations, result.converged) == (5, False)
        assert (result.iterations, result.converged) == expected[3:5]
        assert np.array_equal(result.assignments, expected[0])


class TestDistanceCallCount:
    BLOBS = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [50.0, 50.0], [50.0, 51.0]])

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_kmeanspp_makes_k_minus_1_calls(self, monkeypatch, k):
        # One call per center but the last, whose distances nothing reads.
        calls = _count_distance_calls(monkeypatch)
        kmeanspp_init(self.BLOBS, k, derive_rng(3))
        assert len(calls) == k - 1

    @pytest.mark.parametrize("k", [2, 5])
    def test_kmeanspp_reads_a_given_distance_matrix(self, monkeypatch, k):
        distances = pairwise_distances(self.BLOBS)
        calls = _count_distance_calls(monkeypatch)
        kmeanspp_init(self.BLOBS, k, derive_rng(3), distances=distances)
        assert calls == []

    def test_explicit_centers_skip_seeding(self, monkeypatch):
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, KMeansConfig(k=2, tolerance=0.0), self.BLOBS[[0, 3]])
        # The second assignment repeats the first: the fit stops on it.
        assert result.iterations == 2
        assert len(calls) == result.iterations

    def test_seeded_fit_adds_k_minus_1_calls(self, monkeypatch):
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, KMeansConfig(k=2, tolerance=0.0, seed=4))
        assert result.converged
        assert len(calls) == 1 + result.iterations

    def test_fit_with_distances_makes_only_lloyd_calls(self, monkeypatch):
        config = KMeansConfig(k=2, tolerance=0.0, seed=4)
        distances = pairwise_distances(self.BLOBS)
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, config, distances=distances)
        assert result.converged
        assert len(calls) == result.iterations

    def test_single_cluster_stops_on_the_second_assignment(self, monkeypatch):
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, KMeansConfig(k=1, tolerance=0.0))
        assert (result.iterations, result.converged) == (2, True)
        assert len(calls) == 2

    def test_one_iteration_budget_runs_the_final_pass(self, monkeypatch):
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, KMeansConfig(k=2, max_iterations=1), self.BLOBS[[0, 3]])
        assert result.iterations == 1
        assert len(calls) == result.iterations + 1

    def test_tolerance_stop_runs_the_final_pass(self, monkeypatch):
        calls = _count_distance_calls(monkeypatch)
        result = fit(self.BLOBS, KMeansConfig(k=2, tolerance=1e9), self.BLOBS[[0, 3]])
        assert (result.iterations, result.converged) == (1, True)
        assert len(calls) == result.iterations + 1

    def test_repeat_after_a_reseed_does_not_stop(self, monkeypatch):
        # Identical rows: the first update re-seeds cluster 1, and the second
        # assignment repeats the first. The centers are only known to be
        # final once an update re-seeds nothing, so the tolerance ends the fit.
        calls = _count_distance_calls(monkeypatch)
        matrix = np.ones((3, 2))
        centers = np.array([[1.0, 1.0], [100.0, 100.0]])
        result = fit(matrix, KMeansConfig(k=2, tolerance=0.0), centers)
        assert (result.iterations, result.converged) == (2, True)
        assert len(calls) == result.iterations + 1
        # Cluster 1 empties on both assignments and is re-seeded by both updates.
        assert result.reseeds == 2
