"""k-means++ initialization and Lloyd iteration tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cluster_sense.dataset import generate_dim_like
from cluster_sense.kmeans import ClusteringResult, KMeansConfig, fit, kmeanspp_init
from cluster_sense.seeding import derive_rng


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
    distinct rows, and a seed.

    The offset from the origin stays within 100 spreads. A duplicate's squared
    distance from the |a|^2 + |b|^2 - 2ab expansion is then 0 or a rounding
    residue about 1e-12 of a distinct row's; near 1e7 spreads the residue is
    large enough to be drawn.
    """
    distinct = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = 10.0 ** draw(st.integers(-3, 3))
    d = draw(st.integers(1, 8))
    values = spread * (rng.normal(size=(distinct, d)) + draw(st.integers(0, 100)))
    copies = draw(st.lists(st.integers(1, 5), min_size=distinct, max_size=distinct))
    matrix = np.repeat(values, copies, axis=0)[rng.permutation(sum(copies))]
    return matrix, draw(st.integers(1, distinct)), draw(st.integers(0, 2**32 - 1))


class TestKMeansPlusPlusDistinct:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_matrix_with_duplicates())
    def test_picks_are_pairwise_distinct(self, case):
        # Generator.choice never returns a zero-weight index, so no row that
        # duplicates a chosen center is picked again.
        matrix, k, seed = case
        centers = kmeanspp_init(matrix, k, derive_rng(seed))
        assert len(np.unique(centers, axis=0)) == k


class TestFit:
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

    def test_default_tolerance_matches_explicit(self):
        ds = generate_dim_like(6, 4, 25, 10.0, seed=13)
        explicit = 1e-4 * float(ds.points.var(axis=0).mean())
        auto = fit(ds.points, KMeansConfig(k=4, seed=5))
        manual = fit(ds.points, KMeansConfig(k=4, seed=5, tolerance=explicit))
        assert np.array_equal(auto.assignments, manual.assignments)
        assert auto.iterations == manual.iterations

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
