"""Metric tests: frozen hand values, brute-force oracles, and invariants."""

import math
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cluster_sense import distance, metrics
from cluster_sense.dataset import dense_remap
from cluster_sense.distance import fits_one_block, pairwise_distances
from cluster_sense.metrics import (
    METRIC_NAMES,
    adjusted_rand_index,
    contingency,
    davies_bouldin,
    evaluate_clustering,
    nmi,
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


# Property tests run a fixed example sequence and keep no example database,
# so every run checks the same cases.
FIXED_EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def _value_bits(scores):
    """evaluate_clustering's values as float hex, metric by metric, so that
    equal means bit for bit."""
    return {name: [value.hex() for value in values.tolist()] for name, values in scores.items()}


def _single_bits(matrix, stack, truth):
    """_value_bits of each labeling of the stack scored alone, joined."""
    singles = [_value_bits(evaluate_clustering(matrix, labels[None], truth)) for labels in stack]
    return {name: [bits for single in singles for bits in single[name]] for name in METRIC_NAMES}


def _random_labels(rng):
    """(predicted, truth): 4 to 60 points, each vector with 2 to 6 label ids."""
    n = int(rng.integers(4, 61))
    kx = int(rng.integers(2, 7))
    ky = int(rng.integers(2, 7))
    return rng.integers(0, kx, n), rng.integers(0, ky, n)


class TestContingency:
    def test_identical_partitions(self):
        table = contingency([0, 0, 1, 1], [0, 0, 1, 1])
        assert np.array_equal(table, [[2, 0], [0, 2]])

    def test_crossed_partitions(self):
        table = contingency([0, 0, 1, 1], [0, 1, 0, 1])
        assert np.array_equal(table, [[1, 1], [1, 1]])

    def test_singleton_columns(self):
        table = contingency([0, 1, 2], [0, 0, 0])
        assert table.shape == (3, 1)
        assert np.array_equal(table, [[1], [1], [1]])

    def test_cells_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, y = _random_labels(rng)
            assert contingency(x, y).sum() == x.size

    def test_matches_pairs_counted_one_by_one(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x, y = _random_labels(rng)
            expected = np.zeros((len(set(x.tolist())), len(set(y.tolist()))), dtype=np.int64)
            rows = {v: i for i, v in enumerate(dict.fromkeys(x.tolist()))}
            cols = {v: j for j, v in enumerate(dict.fromkeys(y.tolist()))}
            for a, b in zip(x.tolist(), y.tolist()):
                expected[rows[a], cols[b]] += 1
            table = contingency(x, y)
            assert table.dtype == np.int64
            assert np.array_equal(table, expected)

    def test_swapping_arguments_transposes(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            x, y = _random_labels(rng)
            assert np.array_equal(contingency(y, x), contingency(x, y).T)

    @pytest.mark.parametrize(
        "predicted, truth, message",
        [
            ([[0, 1], [1, 0]], [[0, 1], [1, 0]], "equal-length vectors"),
            ([0, 1, 1], [0, 1], "equal-length vectors"),
            ([], [], "non-empty"),
        ],
        ids=["2-D", "unequal", "empty"],
    )
    def test_rejects_bad_input(self, predicted, truth, message):
        with pytest.raises(ValueError, match=message):
            contingency(predicted, truth)


class TestNmi:
    def test_identical_partitions(self):
        assert nmi(contingency([0, 0, 1, 1, 2], [0, 0, 1, 1, 2])) == 1.0

    def test_independent_partitions(self):
        assert nmi(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == 0.0

    def test_partial_overlap_matches_oracle(self):
        x = [0, 0, 1, 1]
        y = [0, 0, 0, 1]
        value = nmi(contingency(x, y))
        assert 0.0 < value < 1.0
        assert value == pytest.approx(nmi_oracle(x, y), abs=1e-12)

    def test_both_single_cluster(self):
        assert nmi(contingency([0, 0, 0], [0, 0, 0])) == 1.0

    def test_one_single_cluster(self):
        # One trivial partition carries no information: MI = 0.
        assert nmi(contingency([0, 0, 0, 0], [0, 1, 0, 1])) == 0.0

    def test_base_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            predicted, truth = _random_labels(rng)
            x = predicted.tolist()
            y = truth.tolist()
            assert nmi_oracle(x, y) == pytest.approx(nmi_oracle_base2(x, y), abs=1e-12)
            assert nmi(contingency(x, y)) == pytest.approx(nmi_oracle_base2(x, y), abs=1e-12)


class TestPairCounts:
    """The pair counts behind RI and ARI: the C(v, 2) sums over the contingency
    cells (pairs together in both partitions), rows and columns."""

    def _sums(self, x, y):
        return metrics._pair_sums(contingency(x, y))

    def test_identical_partitions(self):
        assert self._sums([0, 0, 1, 1], [0, 0, 1, 1]) == (2, 2, 2)

    def test_crossed_partitions(self):
        assert self._sums([0, 0, 1, 1], [0, 1, 0, 1]) == (0, 2, 2)

    def test_single_cluster_both(self):
        # Every one of the C(3, 2) = 3 pairs is together in both partitions.
        assert self._sums([0, 0, 0], [0, 0, 0]) == (3, 3, 3)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            predicted, truth = (labels.tolist() for labels in _random_labels(rng))
            a, b, total = pair_enumeration(predicted, truth)
            table = contingency(predicted, truth)
            cells, rows, cols = metrics._pair_sums(table)
            assert cells == a
            # A partition paired with itself has its together-pairs as a.
            assert rows == pair_enumeration(predicted, predicted)[0]
            assert cols == pair_enumeration(truth, truth)[0]
            assert rand_index(table) == (a + b) / total

    def test_rejects_single_point(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            rand_index(contingency([0], [0]))

    @FIXED_EXAMPLES
    @given(st.data())
    def test_pair_sums_equal_python_int_formula(self, data):
        # Tables up to the documented bound n < 2^31, against the exact
        # Python-integer sum of C(v, 2) over cells, row sums and column sums.
        kx, ky = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        cap = data.draw(st.sampled_from([3, 1000, (2**31 - 1) // (kx * ky)]))
        cells = data.draw(st.lists(st.integers(0, cap), min_size=kx * ky, max_size=kx * ky))
        table = np.array(cells, dtype=np.int64).reshape(kx, ky)

        def comb2_sum(values):
            return sum(int(v) * (int(v) - 1) // 2 for v in values)

        expected = (
            comb2_sum(table.ravel()),
            comb2_sum(table.sum(axis=1)),
            comb2_sum(table.sum(axis=0)),
        )
        sums = metrics._pair_sums(table)
        assert sums == expected
        assert all(type(value) is int for value in sums)


class TestRandIndex:
    def test_identical(self):
        assert rand_index(contingency([0, 1, 0, 1], [0, 1, 0, 1])) == 1.0

    def test_crossed(self):
        assert rand_index(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == pytest.approx(1.0 / 3.0)

    def test_two_points_disagreeing(self):
        assert rand_index(contingency([0, 1], [0, 0])) == 0.0


class TestAdjustedRandIndex:
    def test_identical_and_relabeled(self):
        assert adjusted_rand_index(contingency([0, 1, 2, 0], [0, 1, 2, 0])) == 1.0
        assert adjusted_rand_index(contingency([0, 1, 2, 0], [2, 0, 1, 2])) == 1.0

    def test_crossed_is_minus_half(self):
        assert adjusted_rand_index(contingency([0, 0, 1, 1], [0, 1, 0, 1])) == -0.5

    def test_trivial_identical_partitions(self):
        assert adjusted_rand_index(contingency([0, 0, 0], [0, 0, 0])) == 1.0
        assert adjusted_rand_index(contingency([0, 1, 2], [0, 1, 2])) == 1.0

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
        table = contingency(x, y)
        rows = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=1))
        cols = sum(int(v) * (int(v) - 1) // 2 for v in table.sum(axis=0))
        closed_form = rows * cols / x.size / (x.size - 1) * 2
        estimate = float(np.mean(a_samples))
        spread = float(np.std(a_samples)) / math.sqrt(len(a_samples))
        assert abs(estimate - closed_form) < 5 * spread + 1e-9


def _blocked_matrix(matrix):
    """The n x n distance matrix silhouette computes: pairwise_distances for
    one block; else each tile from the tile kernel, and the entries no tile
    holds, left of each strip's diagonal, mirrored from those above it. So
    the tiles silhouette reads from it have the bits of those it computes."""
    n = len(matrix)
    if fits_one_block(n):
        return pairwise_distances(matrix)
    operand = distance.tile_operand(matrix)
    full = np.empty((n, n))
    held = np.zeros((n, n), dtype=bool)
    for rows, columns in distance.tiles(n):
        full[rows, columns] = distance.tile(operand, rows, columns)
        held[rows, columns] = True
    full[~held] = full.T[~held]
    return full


class TestSilhouette:
    def test_two_tight_far_pairs(self):
        matrix = np.array([[0.0], [0.1], [10.0], [10.1]])
        (value,) = silhouette(matrix, [[0, 0, 1, 1]])
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
        assert silhouette(matrix, [[0, 0, 1, 1]]).tolist() == [1.0]

    def test_approaches_one_with_separation(self):
        previous = 0.0
        for gap in (10.0, 100.0, 1000.0):
            matrix = np.array([[0.0], [0.1], [gap], [gap + 0.1]])
            (value,) = silhouette(matrix, [[0, 0, 1, 1]])
            assert value > previous
            previous = value
        assert previous > 0.999

    def test_random_partition_of_one_cloud_scores_near_zero(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(size=(200, 2))
        (value,) = silhouette(matrix, [rng.integers(0, 2, 200)])
        assert abs(value) < 0.1

    def test_singleton_contributes_zero(self):
        matrix = np.array([[0.0], [1.0], [2.0]])
        # Point 0 is alone: s_0 = 0; the helper value equals the loop oracle.
        (value,) = silhouette(matrix, [[0, 1, 1]])
        assert value == pytest.approx(silhouette_oracle(matrix.tolist(), [0, 1, 1]), abs=1e-12)

    def test_all_points_coincident(self):
        matrix = np.zeros((4, 2))
        assert silhouette(matrix, [[0, 0, 1, 1]]).tolist() == [0.0]

    def test_rejects_single_cluster(self):
        with pytest.raises(ValueError, match="2 distinct clusters"):
            silhouette(np.zeros((3, 1)), [[0, 0, 0]])

    def test_precomputed_distances_match(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, 40)
        direct = silhouette(matrix, [labels])
        assert direct.tolist() == silhouette(matrix, [labels], _blocked_matrix(matrix)).tolist()

    def test_one_block_call_computes_pairwise_distances(self, monkeypatch):
        # Without `distances`, a one-block matrix is pairwise_distances,
        # looked up by its module name, which a tracer wraps: the call has
        # the bits of one given that matrix, and computes no tile.
        rng = np.random.default_rng(19)
        matrix = rng.normal(size=(120, 5)) * 2.0 + 3.0
        stack = np.stack([rng.integers(0, k, 120) for k in (2, 4, 7)])
        assert fits_one_block(120)
        given = silhouette(matrix, stack, pairwise_distances(matrix))
        built = []

        def recording(x):
            built.append(x.shape)
            return pairwise_distances(x)

        def no_tile(*args):
            raise AssertionError("a tile was computed")

        monkeypatch.setattr(metrics, "pairwise_distances", recording)
        monkeypatch.setattr(metrics, "tile", no_tile)
        direct = silhouette(matrix, stack)
        assert built == [(120, 5)]
        assert [v.hex() for v in direct.tolist()] == [v.hex() for v in given.tolist()]


class TestBlockedSilhouette:
    """Silhouette over tiles of the distance matrix (budgets shrunk)."""

    @pytest.mark.parametrize("n, rows", [(40, 7), (45, 8), (33, 1)])
    def test_blocked_equals_cached_and_oracle(self, tile_shape, n, rows):
        # Strips of `rows` rows in tiles of 16 columns, several per strip;
        # given distances are read in the same tiles, in the same order.
        rng = np.random.default_rng(n)
        matrix = rng.normal(size=(n, 3)) * 2.0
        labels = rng.integers(0, 4, n)
        labels[0] = 9  # a singleton cluster contributes 0
        tile_shape(n, rows, 16)
        strips = [rows.start for rows, _ in distance.tiles(n)]
        assert len(set(strips)) > 2 and strips.count(0) > 1
        (blocked,) = silhouette(matrix, [labels])
        assert [blocked] == silhouette(matrix, [labels], _blocked_matrix(matrix)).tolist()
        oracle = silhouette_oracle(matrix.tolist(), labels.tolist())
        assert blocked == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("offset, rel", [(0.0, 1e-12), (10.0, 1e-12), (1e3, 1e-6)])
    def test_several_blocks_agree_with_oracle_far_from_the_origin(self, tile_shape, offset, rel):
        # The augmented tiles cancel |x|^2 terms that grow with the offset,
        # as the |a|^2 + |b|^2 - 2ab expansion does; 13 strips of n = 200
        # in tiles of 48 columns.
        tile_shape(200, 16, 48)
        for seed in range(10):
            matrix, stack = _clustered(200, 4, seed)
            matrix += offset
            (value,) = silhouette(matrix, stack[1:2])
            oracle = silhouette_oracle(matrix.tolist(), stack[1].tolist())
            assert value == pytest.approx(oracle, rel=rel, abs=0.0)

    def test_block_budget_changes_nothing_but_rounding(self, tile_shape):
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(203, 5))
        labels = rng.integers(0, 6, 203)
        (whole,) = silhouette(matrix, [labels])
        tile_shape(203, 16, 40)
        assert silhouette(matrix, [labels])[0] == pytest.approx(whole, abs=1e-12)

    def test_memory_is_block_times_n_not_n_squared(self, tile_shape):
        # numpy reports its buffers to tracemalloc; 32 x 256 tiles of n = 1024
        # are 1/128 of the matrix, so the peak stays far below one n x n matrix.
        n = 1024
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(n, 4))
        labels = rng.integers(0, 16, n)
        tile_shape(n, 32, 256)
        tracemalloc.start()
        try:
            silhouette(matrix, [labels])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


def _clustered(n, d, seed):
    """n points around four centers, the four-cluster truth, and a stack of
    it, a tenth of it relabeled, and two of its clusters merged."""
    rng = np.random.default_rng(seed)
    truth = np.arange(n) % 4
    matrix = rng.normal(size=(4, d))[truth] * 3.0 + rng.normal(size=(n, d))
    relabeled = truth.copy()
    relabeled[rng.choice(n, n // 10, replace=False)] = rng.integers(0, 4, n // 10)
    return matrix, np.stack([truth, relabeled, np.minimum(truth, 2)])


# Interpreter objects of one silhouette call past one block: the helper
# threads, their locks and the tile loop's closures, about 16 KiB measured,
# whatever n, d, R and k are.
LOOP_OBJECT_BYTES = 32 * 1024


def _tiled_peak(matrix, stack):
    """tracemalloc's peak over one silhouette call: numpy reports its
    buffers to it."""
    tracemalloc.start()
    try:
        silhouette(matrix, stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _per_thread_budget(threads, d, labelings, k):
    """Bytes of what silhouette holds per thread past one block: a tile
    buffer, a row side and a held tile's own sums; and, once for all
    threads, the product of the commit running."""
    rows, columns = distance.TILE_ROWS, distance.TILE_COLUMNS
    per_thread = rows * columns + rows * (d + 2) + labelings * rows * k
    return 8 * (threads * per_thread + columns * k)


def _per_point_bytes(n, d, labelings, k):
    """Bytes silhouette holds per point: the column-side operand, each
    labeling's one-hot matrix and sums, and its dense labels."""
    return 8 * (n * (d + 2) + 2 * labelings * n * k + labelings * n)


class TestSilhouettePanels:
    """Silhouette past one block: each strip's tiles from its diagonal on,
    and the sums of the pairs left of the diagonal from earlier strips'
    tiles, added in tile order."""

    # n a multiple of 8 in equal strips, n not a multiple of 8, and a short
    # last strip (88 = 3 * 24 + 16); tiles of 32 columns.
    @pytest.mark.parametrize("n, rows", [(96, 16), (61, 8), (88, 24)])
    def test_bits_independent_of_threads_and_reruns(self, controlled_blas, tile_shape, n, rows):
        matrix, stack = _clustered(n, 24, seed=n)
        tile_shape(n, rows, 32)
        on_two = silhouette(matrix, stack)
        with distance._single_blas_thread():
            on_one = silhouette(matrix, stack)
        bits = [v.hex() for v in on_two.tolist()]
        assert [v.hex() for v in on_one.tolist()] == bits
        assert [v.hex() for v in silhouette(matrix, stack).tolist()] == bits
        oracle = [silhouette_oracle(matrix.tolist(), labels.tolist()) for labels in stack]
        assert on_two.tolist() == pytest.approx(oracle, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1100, 3000])
    def test_default_tiles_bits_independent_of_threads(self, controlled_blas, n):
        # The default 128 x 1024 tiles, with a short last strip and narrow
        # last tiles, on T = 2 threads and on one.
        matrix, stack = _clustered(n, 16, seed=n)
        assert not fits_one_block(n)
        on_two = silhouette(matrix, stack)
        with distance._single_blas_thread():
            on_one = silhouette(matrix, stack)
        assert [v.hex() for v in on_one.tolist()] == [v.hex() for v in on_two.tolist()]

    def test_panel_error_propagates_and_undoes_the_pin(
        self, monkeypatch, controlled_blas, tile_shape
    ):
        # The first tile of the fourth of eight strips raises after the next
        # tile is done and waits behind it to commit: the error reaches the
        # caller, the waiting tile is released, and the pin is undone.
        matrix, stack = _clustered(64, 8, seed=3)
        tile_shape(64, 8, 24)
        original = metrics.tile

        def failing_tile(operand, rows, columns, out):
            if (rows.start, columns.start) == (24, 24):
                time.sleep(0.2)
                raise TypeError("bug in a tile")
            return original(operand, rows, columns, out)

        monkeypatch.setattr(metrics, "tile", failing_tile)
        raised = []

        def run():
            try:
                silhouette(matrix, stack)
            except TypeError as error:
                raised.append(str(error))

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert raised == ["bug in a tile"]
        assert distance._blas_pin_depth == 0
        assert distance.blas_thread_count() == controlled_blas

    def test_peak_memory_grows_with_the_stack_by_its_sums(self, controlled_blas, tile_shape):
        # numpy reports its buffers to tracemalloc. Whatever the stack, each
        # thread holds one tile buffer and the row side of its tile, far
        # below one n x n matrix. Each labeling adds its one-hot matrix and
        # its sums, n x k floats each, and its dense labels; its share of a
        # held tile is TILE_ROWS x k floats and the later rows' share is
        # added at the commit, one labeling at a time, so no thread holds
        # them for the whole stack.
        n, rows, k = 512, 16, 8
        tile_shape(n, rows, 64)
        rng = np.random.default_rng(21)
        matrix = rng.normal(size=(n, 4))

        def peak(labelings):
            stack = np.stack([rng.permutation(n) % k for _ in range(labelings)])
            tracemalloc.start()
            try:
                silhouette(matrix, stack)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_labeling = n * k * 8
        one, many = peak(1), peak(33)
        assert one < n * n * 8 / 2
        assert many - one < 32 * 3 * per_labeling

    @pytest.mark.parametrize("labelings", [1, 5])
    def test_peak_memory_is_panels_operand_and_sums(self, controlled_blas, labelings):
        # n = 2048 in the default 1 MiB tiles: T tile buffers, the
        # column-side operand, each labeling's one-hot matrix, sums and
        # dense labels, each thread's row side and held sums, the one commit
        # product and the loop's interpreter objects. A whole-strip panel,
        # or a later-row temporary of (n - stop) x k floats per commit,
        # would not fit.
        n, d, k = 2048, 64, 8
        rng = np.random.default_rng(23)
        matrix = rng.normal(size=(n, d))
        stack = np.stack([rng.permutation(n) % k for _ in range(labelings)])
        assert not fits_one_block(n)
        bound = (
            _per_thread_budget(controlled_blas, d, labelings, k)
            + _per_point_bytes(n, d, labelings, k)
            + LOOP_OBJECT_BYTES
        )
        assert _tiled_peak(matrix, stack) < bound

    def test_per_thread_term_does_not_grow_with_n(self, controlled_blas):
        # What the peak holds beyond the per-point arrays stays within the T
        # tile buffers and what goes with them, about 2.3 MB, at n = 1536
        # and at n = 6144, where one 128-row strip per thread would be
        # 12.6 MB.
        d, k, labelings = 16, 16, 2
        for n in (1536, 6144):
            matrix, _ = _clustered(n, d, seed=n)
            stack = np.stack([np.arange(n) % k, (np.arange(n) // 7) % k])
            per_thread = _tiled_peak(matrix, stack) - _per_point_bytes(n, d, labelings, k)
            budget = _per_thread_budget(controlled_blas, d, labelings, k) + LOOP_OBJECT_BYTES
            assert per_thread < budget, n


@st.composite
def _matrix_and_labelings(draw):
    """A point matrix, a stack of labelings of its points, and a tile shape.

    Some labelings have a singleton cluster, the stack mixes labelings with
    different numbers of present clusters, and rounded matrices give
    coincident points.
    """
    n = draw(st.integers(2, 40))
    matrix = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(n, draw(st.integers(1, 4)))
    )
    if draw(st.booleans()):
        matrix = np.round(matrix)
    labelings = []
    for _ in range(draw(st.integers(1, 5))):
        k = draw(st.integers(2, 6))
        labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        if draw(st.booleans()):
            labels[draw(st.integers(0, n - 1))] = k  # a singleton cluster
        assume(len(set(labels)) >= 2)
        labelings.append(labels)
    # Strip rows, n or more for one block, and tile columns.
    return matrix, np.array(labelings), (draw(st.integers(1, n)), draw(st.integers(1, n)))


class TestSilhouetteStack:
    # blas_threads holds OpenBLAS at two threads for every example, so tiles
    # run on two threads; a caller's one-thread pin must change no bit.
    @settings(FIXED_EXAMPLES, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_matrix_and_labelings())
    def test_stack_equals_single_labelings(self, blas_threads, tile_shape, case):
        matrix, stack, (rows, columns) = case
        tile_shape(matrix.shape[0], rows, columns)
        stacked = silhouette(matrix, stack)
        singles = [value for labels in stack for value in silhouette(matrix, [labels])]
        with distance._single_blas_thread():
            pinned = silhouette(matrix, stack)
        assert stacked.dtype == np.float64 and stacked.shape == (len(stack),)
        # Bit for bit: the same float, not merely a close one.
        bits = [v.hex() for v in singles]
        assert [v.hex() for v in stacked.tolist()] == bits
        assert [v.hex() for v in pinned.tolist()] == bits
        # Given distances are read in the same tiles, in the same order: the
        # one-block matrix pairwise_distances builds, or the tiles' matrix.
        given = silhouette(matrix, stack, _blocked_matrix(matrix))
        assert [v.hex() for v in given.tolist()] == bits

    def test_evaluate_clustering_stack_equals_single_reports(self, tile_shape):
        rng = np.random.default_rng(13)
        matrix = rng.normal(size=(60, 3))
        truth = rng.integers(0, 3, 60)
        stack = np.stack([rng.integers(0, k, 60) for k in (2, 3, 5)])
        stack[1, 7] = 9  # a singleton cluster
        tile_shape(60, 8, 24)
        scores = evaluate_clustering(matrix, stack, truth)
        assert _value_bits(scores) == _single_bits(matrix, stack, truth)
        reused = evaluate_clustering(matrix, stack, truth, distances=_blocked_matrix(matrix))
        assert _value_bits(reused) == _value_bits(scores)

    def test_evaluate_clustering_builds_one_table_per_labeling(self, monkeypatch):
        # Each labeling is counted against the truth once, and that one table
        # is what nmi, rand_index and adjusted_rand_index all score. The
        # metrics are looked up by their module names, which a tracer wraps.
        rng = np.random.default_rng(17)
        matrix = rng.normal(size=(50, 2))
        truth = rng.integers(0, 3, 50)
        stack = np.stack([rng.integers(0, k, 50) for k in (2, 3, 4, 5)])
        built, scored = [], {"nmi": [], "rand_index": [], "adjusted_rand_index": []}

        def recording(name, function, record):
            def wrapper(*args):
                value = function(*args)
                record(value if name == "contingency" else args[0])
                return value

            monkeypatch.setattr(metrics, name, wrapper)

        recording("contingency", metrics.contingency, built.append)
        for name, tables in scored.items():
            recording(name, getattr(metrics, name), tables.append)
        scores = evaluate_clustering(matrix, stack, truth)
        assert len(built) == len(stack)
        for tables in scored.values():
            assert [id(table) for table in tables] == [id(table) for table in built]
        assert _value_bits(scores) == _single_bits(matrix, stack, truth)

    def test_one_collapsed_labeling_rejects_the_stack(self):
        matrix = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="2 distinct clusters"):
            silhouette(matrix, [[0, 0, 1, 1], [2, 2, 2, 2]])

    def test_rejects_other_shapes(self):
        for assignments in ([0, 1], np.zeros((1, 1, 2), dtype=int)):
            with pytest.raises(ValueError, match=r"stack \(R, n\)"):
                silhouette(np.zeros((2, 1)), assignments)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3), (4,), (4, 4, 1)])
    def test_rejects_distances_of_another_shape(self, shape):
        matrix = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="distances must have shape"):
            silhouette(matrix, [[0, 0, 1, 1]], np.zeros(shape))


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

    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    def test_bit_equal_centroids_give_inf_despite_rounding(self, offset):
        # Two 2-point clusters in 3-D holding the same two values per
        # coordinate, so both centroids are the same float sums. The
        # |a|^2 + |b|^2 - 2ab expansion can still leave their distance a
        # rounding residue above 0.
        rng = np.random.default_rng(7)
        swap = np.array([True, False, True])
        for _ in range(100):
            a, b = rng.normal(size=(2, 3)) + offset
            matrix = np.array([a, b, np.where(swap, b, a), np.where(swap, a, b)])
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

    def test_spreads_in_place_keep_the_bits_of_the_squared_differences(self):
        # Each cluster's spread is taken in place in its gathered members;
        # the same passes over the same values as the expression with
        # temporaries, sqrt(((members - centroid) ** 2).sum(axis=1)).mean().
        def with_temporaries(matrix, labels):
            dense = dense_remap(labels)
            kp = int(dense.max()) + 1
            centroids = np.empty((kp, matrix.shape[1]))
            delta = np.empty(kp)
            for j in range(kp):
                members = matrix[dense == j]
                centroids[j] = members.mean(axis=0)
                delta[j] = float(np.sqrt(((members - centroids[j]) ** 2).sum(axis=1)).mean())
            big_delta = np.sqrt(distance.pairwise_sq_distances(centroids, centroids))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = (delta[:, None] + delta[None, :]) / big_delta
            ratios[np.eye(kp, dtype=bool)] = -np.inf
            return float(ratios.max(axis=1).mean())

        rng = np.random.default_rng(25)
        for _ in range(30):
            n, d, k = int(rng.integers(8, 300)), int(rng.integers(1, 80)), int(rng.integers(2, 9))
            matrix = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-1e3, 1e3)
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            rng.shuffle(labels)
            expected = with_temporaries(matrix, labels)
            assert davies_bouldin(matrix, labels).hex() == expected.hex()

    def test_centroid_distances_run_on_one_blas_thread(self, controlled_blas, kernel_pins):
        # 128 centroids in 256 dimensions: a product OpenBLAS would run on
        # two threads. It runs inside the kernel's pin at depth 1, so
        # Davies-Bouldin holds no pin of its own.
        rng = np.random.default_rng(14)
        matrix = rng.normal(size=(512, 256))
        labels = np.arange(512) % 128
        value = davies_bouldin(matrix, labels)
        assert kernel_pins.products == [("cluster_sense.metrics", 1, 1)]
        assert distance.blas_thread_count() == controlled_blas
        with distance._single_blas_thread():
            assert davies_bouldin(matrix, labels).hex() == value.hex()


class TestInvariants:
    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x, y = _random_labels(rng)
            table, flipped = contingency(x, y), contingency(y, x)
            assert nmi(table) == pytest.approx(nmi(flipped), abs=1e-12)
            assert rand_index(table) == pytest.approx(rand_index(flipped), abs=1e-12)
            assert adjusted_rand_index(table) == pytest.approx(
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
            assert nmi(contingency(x, y)) == nmi(contingency(relabeled, y))
            assert rand_index(contingency(x, y)) == rand_index(contingency(relabeled, y))
            assert adjusted_rand_index(contingency(x, y)) == adjusted_rand_index(
                contingency(relabeled, y)
            )
            matrix = rng.normal(size=(n, 3))
            if len(set(x.tolist())) >= 2:
                # Every metric numbers clusters by first appearance
                # (dense_remap), so a relabeled partition sums in the same
                # order and scores bit for bit the same.
                assert silhouette(matrix, [x]) == silhouette(matrix, [relabeled])
                assert davies_bouldin(matrix, x) == davies_bouldin(matrix, relabeled)

    def test_bounds_on_fuzzed_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            labels, truth = _random_labels(rng)
            table = contingency(labels, truth)
            assert 0.0 <= nmi(table) <= 1.0
            assert 0.0 <= rand_index(table) <= 1.0
            assert adjusted_rand_index(table) <= 1.0
            matrix = rng.normal(size=(labels.size, 2))
            if len(set(labels.tolist())) >= 2:
                assert -1.0 <= silhouette(matrix, [labels])[0] <= 1.0
                assert davies_bouldin(matrix, labels) >= 0.0

    def test_report_round_trip(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(30, 2))
        truth = rng.integers(0, 3, 30)
        assignments = rng.integers(0, 4, 30)
        scores = evaluate_clustering(matrix, assignments[None], truth)
        assert list(scores) == list(METRIC_NAMES)
        assert METRIC_NAMES == ("nmi", "ri", "ari", "silhouette", "davies_bouldin")
        for values in scores.values():
            assert values.dtype == np.float64 and values.shape == (1,)
        out = {name: values[0] for name, values in scores.items()}
        table = contingency(assignments, truth)
        assert out["nmi"] == nmi(table)
        assert out["ri"] == rand_index(table)
        assert out["ari"] == adjusted_rand_index(table)
        assert out["silhouette"] == silhouette(matrix, [assignments])[0]
        assert out["davies_bouldin"] == davies_bouldin(matrix, assignments)

    def test_evaluate_clustering_takes_only_a_stack(self):
        rng = np.random.default_rng(10)
        matrix = rng.normal(size=(30, 2))
        truth = rng.integers(0, 3, 30)
        for assignments in (rng.integers(0, 4, 30), rng.integers(0, 4, (2, 1, 30))):
            with pytest.raises(ValueError, match=r"stack \(R, n\)"):
                evaluate_clustering(matrix, assignments, truth)

    def test_non_dense_labels_accepted(self):
        # contingency densifies arbitrary ids, including negatives and gaps,
        # by first appearance: predicted [0, 0, 1, 2] against truth [0, 0, 0, 1].
        table = contingency([10, 10, -3, 99], [5, 5, 5, 7])
        assert table.tolist() == [[2, 0], [1, 0], [0, 1]]


def _bits(value):
    return float(value).hex()


@st.composite
def _clustering(draw):
    """(matrix, predicted, truth): at least two predicted clusters of up to
    five, truth of one to five, and a standard normal matrix."""
    n = draw(st.integers(4, 40))
    predicted = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    assume(len(set(predicted)) >= 2)
    truth = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n, draw(st.integers(1, 4))))
    return matrix, np.array(predicted), np.array(truth)


# Injective maps of the label ids 0..4, negative and gapped ids included.
_INJECTIVE_IDS = st.lists(st.integers(-(10**6), 10**6), min_size=5, max_size=5, unique=True)


class TestMetricProperties:
    @FIXED_EXAMPLES
    @given(case=_clustering(), data=st.data())
    def test_injective_relabeling_leaves_every_report_bit_identical(self, case, data):
        matrix, predicted, truth = case
        relabeled_predicted = np.array(data.draw(_INJECTIVE_IDS))[predicted]
        relabeled_truth = np.array(data.draw(_INJECTIVE_IDS))[truth]
        bits = _value_bits(evaluate_clustering(matrix, predicted[None], truth))
        for labels, classes in (
            (relabeled_predicted, truth),
            (predicted, relabeled_truth),
            (relabeled_predicted, relabeled_truth),
        ):
            assert _value_bits(evaluate_clustering(matrix, labels[None], classes)) == bits

    @FIXED_EXAMPLES
    @given(case=_clustering())
    def test_swapping_predicted_and_truth(self, case):
        _, predicted, truth = case
        table, swapped = contingency(predicted, truth), contingency(truth, predicted)
        assert _bits(adjusted_rand_index(swapped)) == _bits(adjusted_rand_index(table))
        assert _bits(rand_index(swapped)) == _bits(rand_index(table))
        # NMI's entropy sums run over rows and columns in swapped roles, which
        # can move the last bits, so it is symmetric only to rounding.
        assert nmi(swapped) == pytest.approx(nmi(table), abs=1e-12)

    @FIXED_EXAMPLES
    @given(case=_clustering())
    def test_every_metric_stays_in_its_range(self, case):
        matrix, predicted, truth = case
        scores = evaluate_clustering(matrix, predicted[None], truth)
        (nmi_value,), (ri,), (ari,), (silhouette_value,), (db,) = scores.values()
        assert 0.0 <= nmi_value <= 1.0
        assert 0.0 <= ri <= 1.0
        assert -1.0 <= ari <= 1.0
        assert -1.0 <= silhouette_value <= 1.0
        assert db >= 0.0
