"""Metric tests: frozen hand values, brute-force oracles, and invariants."""

import math
import tracemalloc

import numpy as np
import pytest

from cluster_sense import distance
from cluster_sense.distance import pairwise_distances
from cluster_sense.metrics import (
    MetricReport,
    PartitionPair,
    adjusted_rand_index,
    contingency,
    davies_bouldin,
    evaluate_clustering,
    nmi,
    pair_counts,
    rand_index,
    silhouette,
)
from oracles import (
    ari_oracle,
    davies_bouldin_oracle,
    nmi_oracle,
    nmi_oracle_base2,
    pair_enumeration,
    rand_index_oracle,
    silhouette_oracle,
)


def _pair(x, y):
    return PartitionPair.from_labels(x, y)


def _random_pair(rng, n=None):
    n = n if n is not None else int(rng.integers(4, 61))
    kx = int(rng.integers(2, 7))
    ky = int(rng.integers(2, 7))
    return _pair(rng.integers(0, kx, n), rng.integers(0, ky, n))


class TestContingency:
    def test_identical_partitions(self):
        table = contingency(_pair([0, 0, 1, 1], [0, 0, 1, 1]))
        assert np.array_equal(table, [[2, 0], [0, 2]])

    def test_crossed_partitions(self):
        table = contingency(_pair([0, 0, 1, 1], [0, 1, 0, 1]))
        assert np.array_equal(table, [[1, 1], [1, 1]])

    def test_singleton_columns(self):
        table = contingency(_pair([0, 1, 2], [0, 0, 0]))
        assert table.shape == (3, 1)
        assert np.array_equal(table, [[1], [1], [1]])

    def test_cells_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pair = _random_pair(rng)
            assert contingency(pair).sum() == pair.n


class TestNmi:
    def test_identical_partitions(self):
        assert nmi(_pair([0, 0, 1, 1, 2], [0, 0, 1, 1, 2])) == 1.0

    def test_independent_partitions(self):
        assert nmi(_pair([0, 0, 1, 1], [0, 1, 0, 1])) == 0.0

    def test_partial_overlap_matches_oracle(self):
        x = [0, 0, 1, 1]
        y = [0, 0, 0, 1]
        value = nmi(_pair(x, y))
        assert 0.0 < value < 1.0
        assert value == pytest.approx(nmi_oracle(x, y), abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi(_pair([0, 0, 0], [0, 0, 0])) == 1.0

    def test_one_single_cluster(self):
        # One trivial partition carries no information: MI = 0.
        assert nmi(_pair([0, 0, 0, 0], [0, 1, 0, 1])) == 0.0

    def test_base_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pair = _random_pair(rng)
            x = pair.predicted.tolist()
            y = pair.truth.tolist()
            assert nmi_oracle(x, y) == pytest.approx(nmi_oracle_base2(x, y), abs=1e-12)
            assert nmi(pair) == pytest.approx(nmi_oracle_base2(x, y), abs=1e-12)


class TestPairCounts:
    def test_identical_partitions(self):
        counts = pair_counts(_pair([0, 0, 1, 1], [0, 0, 1, 1]))
        assert (counts.a, counts.b, counts.total_pairs) == (2, 4, 6)

    def test_crossed_partitions(self):
        counts = pair_counts(_pair([0, 0, 1, 1], [0, 1, 0, 1]))
        assert (counts.a, counts.b) == (0, 2)

    def test_single_cluster_both(self):
        counts = pair_counts(_pair([0, 0, 0], [0, 0, 0]))
        assert counts.a == counts.total_pairs
        assert counts.b == 0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pair = _random_pair(rng)
            a, b, total = pair_enumeration(pair.predicted.tolist(), pair.truth.tolist())
            counts = pair_counts(pair)
            assert (counts.a, counts.b, counts.total_pairs) == (a, b, total)

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            pair_counts(_pair([0], [0]))


class TestRandIndex:
    def test_identical(self):
        assert rand_index(_pair([0, 1, 0, 1], [0, 1, 0, 1])) == 1.0

    def test_crossed(self):
        assert rand_index(_pair([0, 0, 1, 1], [0, 1, 0, 1])) == pytest.approx(1.0 / 3.0)

    def test_two_points_disagreeing(self):
        assert rand_index(_pair([0, 1], [0, 0])) == 0.0


class TestAdjustedRandIndex:
    def test_identical_and_relabeled(self):
        assert adjusted_rand_index(_pair([0, 1, 2, 0], [0, 1, 2, 0])) == 1.0
        assert adjusted_rand_index(_pair([0, 1, 2, 0], [2, 0, 1, 2])) == 1.0

    def test_crossed_is_minus_half(self):
        assert adjusted_rand_index(_pair([0, 0, 1, 1], [0, 1, 0, 1])) == -0.5

    def test_trivial_identical_partitions(self):
        assert adjusted_rand_index(_pair([0, 0, 0], [0, 0, 0])) == 1.0
        assert adjusted_rand_index(_pair([0, 1, 2], [0, 1, 2])) == 1.0

    def test_expected_agreement_matches_permutation_resampling(self):
        # The closed-form E = rows*cols/total is the permutation-model mean
        # of the enumerated pair agreement; estimate it by shuffling.
        rng = np.random.default_rng(3)
        x = rng.integers(0, 3, 30)
        y = rng.integers(0, 4, 30)
        a_samples = []
        for _ in range(3000):
            a, _, _ = pair_enumeration(x.tolist(), rng.permutation(y).tolist())
            a_samples.append(a)
        pair = _pair(x, y)
        table = contingency(pair)
        rows = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=1))
        cols = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=0))
        closed_form = rows * cols / pair.n / (pair.n - 1) * 2
        estimate = float(np.mean(a_samples))
        spread = float(np.std(a_samples)) / math.sqrt(len(a_samples))
        assert abs(estimate - closed_form) < 5 * spread + 1e-9


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        matrix = np.array([[0.0], [0.1], [10.0], [10.1]])
        value = silhouette(matrix, [0, 0, 1, 1])
        # Hand computation: the outer points have d_w=0.1, d_n=10.05 and the
        # inner points d_w=0.1, d_n=9.95, so the mean is
        # ((10.05-0.1)/10.05 + (9.95-0.1)/9.95) / 2 = 0.98999975.
        outer = (10.05 - 0.1) / 10.05
        inner = (9.95 - 0.1) / 9.95
        assert value == pytest.approx((outer + inner) / 2, abs=1e-12)
        assert value == pytest.approx(0.9899997, abs=1e-5)
        assert value == pytest.approx(
            silhouette_oracle(matrix.tolist(), [0, 0, 1, 1]), abs=1e-12
        )

    def test_duplicated_points_per_cluster_score_one(self):
        matrix = np.array([[0.0], [0.0], [10.0], [10.0]])
        assert silhouette(matrix, [0, 0, 1, 1]) == 1.0

    def test_approaches_one_with_separation(self):
        previous = 0.0
        for gap in (10.0, 100.0, 1000.0):
            matrix = np.array([[0.0], [0.1], [gap], [gap + 0.1]])
            value = silhouette(matrix, [0, 0, 1, 1])
            assert value > previous
            previous = value
        assert previous > 0.999

    def test_random_partition_of_one_cloud_scores_near_zero(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(size=(200, 2))
        value = silhouette(matrix, rng.integers(0, 2, 200))
        assert abs(value) < 0.1

    def test_singleton_contributes_zero(self):
        matrix = np.array([[0.0], [1.0], [2.0]])
        # Point 0 is alone: s_0 = 0; the helper value equals the loop oracle.
        value = silhouette(matrix, [0, 1, 1])
        assert value == pytest.approx(silhouette_oracle(matrix.tolist(), [0, 1, 1]), abs=1e-12)

    def test_all_points_coincident(self):
        matrix = np.zeros((4, 2))
        assert silhouette(matrix, [0, 0, 1, 1]) == 0.0

    def test_rejects_single_cluster(self):
        with pytest.raises(ValueError, match="2 distinct clusters"):
            silhouette(np.zeros((3, 1)), [0, 0, 0])

    def test_precomputed_distances_match(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, 40)
        direct = silhouette(matrix, labels)
        cached = silhouette(matrix, labels, distances=pairwise_distances(matrix))
        assert direct == cached


class TestBlockedSilhouette:
    """Silhouette over row blocks of the distance matrix (budget shrunk)."""

    @staticmethod
    def _shrink_budget(monkeypatch, rows, n):
        monkeypatch.setattr(distance, "BLOCK_BYTES", rows * 8 * n)

    @pytest.mark.parametrize("n, rows", [(40, 7), (45, 8), (33, 1)])
    def test_blocked_equals_cached_and_oracle(self, monkeypatch, n, rows):
        rng = np.random.default_rng(n)
        matrix = rng.normal(size=(n, 3)) * 2.0
        labels = rng.integers(0, 4, n)
        labels[0] = 9  # a singleton cluster contributes 0
        self._shrink_budget(monkeypatch, rows, n)
        blocks = distance.row_blocks(n)
        assert len(blocks) > 2 and blocks[-1][1] - blocks[-1][0] <= rows
        blocked = silhouette(matrix, labels)
        cached = silhouette(matrix, labels, distances=pairwise_distances(matrix))
        assert blocked == cached
        oracle = silhouette_oracle(matrix.tolist(), labels.tolist())
        assert blocked == pytest.approx(oracle, abs=1e-12)

    def test_block_budget_changes_nothing_but_rounding(self, monkeypatch):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(203, 5))
        labels = rng.integers(0, 6, 203)
        whole = silhouette(matrix, labels)
        self._shrink_budget(monkeypatch, 16, 203)
        assert silhouette(matrix, labels) == pytest.approx(whole, abs=1e-12)

    def test_memory_is_block_times_n_not_n_squared(self, monkeypatch):
        # numpy reports its buffers to tracemalloc; 32-row blocks of n = 1024
        # are 1/32 of the matrix, so the peak stays far below one n x n matrix.
        n = 1024
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(n, 4))
        labels = rng.integers(0, 16, n)
        self._shrink_budget(monkeypatch, 32, n)
        tracemalloc.start()
        try:
            silhouette(matrix, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestDaviesBouldin:
    def test_two_cluster_hand_value(self):
        matrix = np.array([[0.0], [2.0], [10.0], [12.0]])
        assert davies_bouldin(matrix, [0, 0, 1, 1]) == pytest.approx(0.2, abs=1e-12)

    def test_identical_points_per_cluster_scores_zero(self):
        matrix = np.array([[0.0], [0.0], [5.0], [5.0], [9.0], [9.0]])
        assert davies_bouldin(matrix, [0, 0, 1, 1, 2, 2]) == 0.0

    def test_coincident_centroids_give_inf_with_warning(self):
        matrix = np.array([[0.0], [2.0], [0.0], [2.0]])
        with pytest.warns(RuntimeWarning, match="coincident"):
            value = davies_bouldin(matrix, [0, 0, 1, 1])
        assert value == math.inf

    def test_three_cluster_oracle(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, 30)
        assert davies_bouldin(matrix, labels) == pytest.approx(
            davies_bouldin_oracle(matrix.tolist(), labels.tolist()), abs=1e-12
        )

    def test_rejects_single_cluster(self):
        with pytest.raises(ValueError, match="2 distinct clusters"):
            davies_bouldin(np.zeros((3, 1)), [1, 1, 1])


class TestInvariants:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            pair = _random_pair(rng)
            flipped = _pair(pair.truth, pair.predicted)
            assert nmi(pair) == pytest.approx(nmi(flipped), abs=1e-12)
            assert rand_index(pair) == pytest.approx(rand_index(flipped), abs=1e-12)
            assert adjusted_rand_index(pair) == pytest.approx(
                adjusted_rand_index(flipped), abs=1e-12
            )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(10, 40))
            x = rng.integers(0, 4, n)
            y = rng.integers(0, 3, n)
            perm_x = rng.permutation(4)
            relabeled = perm_x[x]
            assert nmi(_pair(x, y)) == pytest.approx(nmi(_pair(relabeled, y)), abs=1e-12)
            assert rand_index(_pair(x, y)) == rand_index(_pair(relabeled, y))
            assert adjusted_rand_index(_pair(x, y)) == adjusted_rand_index(
                _pair(relabeled, y)
            )
            matrix = rng.normal(size=(n, 3))
            if len(set(x.tolist())) >= 2:
                # Relabeling permutes internal cluster order, which can move
                # float summation order by an ulp; allow that and nothing more.
                assert silhouette(matrix, x) == pytest.approx(
                    silhouette(matrix, relabeled), abs=1e-12
                )
                assert davies_bouldin(matrix, x) == pytest.approx(
                    davies_bouldin(matrix, relabeled), abs=1e-12
                )

    def test_bounds_on_fuzzed_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            pair = _random_pair(rng)
            assert 0.0 <= nmi(pair) <= 1.0
            assert 0.0 <= rand_index(pair) <= 1.0
            assert adjusted_rand_index(pair) <= 1.0
            n = pair.n
            matrix = rng.normal(size=(n, 2))
            labels = pair.predicted
            if len(set(labels.tolist())) >= 2:
                assert -1.0 <= silhouette(matrix, labels) <= 1.0
                assert davies_bouldin(matrix, labels) >= 0.0

    def test_report_round_trip(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(30, 2))
        truth = rng.integers(0, 3, 30)
        assignments = rng.integers(0, 4, 30)
        report = evaluate_clustering(matrix, assignments, truth)
        assert isinstance(report, MetricReport)
        out = report.as_dict()
        assert list(out) == ["nmi", "ri", "ari", "silhouette", "davies_bouldin"]
        pair = _pair(assignments, truth)
        assert out["nmi"] == nmi(pair)
        assert out["ri"] == rand_index(pair)
        assert out["ari"] == adjusted_rand_index(pair)
        assert out["silhouette"] == silhouette(matrix, assignments)
        assert out["davies_bouldin"] == davies_bouldin(matrix, assignments)

    def test_non_dense_labels_accepted(self):
        # from_labels densifies arbitrary ids, including negatives and gaps.
        pair = _pair([10, 10, -3, 99], [5, 5, 5, 7])
        assert pair.predicted.tolist() == [0, 0, 1, 2]
        assert pair.truth.tolist() == [0, 0, 0, 1]
