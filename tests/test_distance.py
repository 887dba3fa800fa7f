"""Distance kernel tests: tile layout, one-shot equivalence, memory shape,
and the BLAS threading tiles run under."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cluster_sense import distance
from cluster_sense.distance import (
    fits_one_block,
    pairwise_distances,
    pairwise_sq_distances,
    tile,
    tile_operand,
    tiles,
)
from cluster_sense.kmeans import KMeansConfig, fit, kmeanspp_init
from cluster_sense.metrics import evaluate_clustering, silhouette
from cluster_sense.seeding import derive_rng


def _one_shot(x):
    """The whole-matrix formula the blocked kernel replaces."""
    d = np.sqrt(pairwise_sq_distances(x, x))
    np.fill_diagonal(d, 0.0)
    return d


def _assembled(x):
    """The n x n matrix assembled from the tiles silhouette computes, each
    strip from its diagonal on, mirrored below the diagonal."""
    n = len(x)
    operand = tile_operand(x)
    full = np.empty((n, n))
    for rows, columns in tiles(n):
        full[rows, columns] = tile(operand, rows, columns)
    below = np.tril_indices(n, -1)
    full[below] = full.T[below]
    return full


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("m", [1, 2, 16, 97])
    def test_precomputed_row_norms_are_bit_identical(self, m):
        # m = 1 is the one-center GEMV product k-means++ makes per pick.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(300, 70)) * 20.0 + 5.0
        b = a[rng.integers(300, size=m)] + rng.normal(size=(m, 70))
        a_sq = np.einsum("ij,ij->i", a, a)
        for y in (b, a[5:6]):
            expected = pairwise_sq_distances(a, y)
            got = pairwise_sq_distances(a, y, a_sq=a_sq)
            assert got.tobytes() == expected.tobytes()


    def test_norm_sums_added_in_row_chunks_round_the_same(self, monkeypatch):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(45, 6)) * 30.0 + 2.0
        b = rng.normal(size=(13, 6))
        whole = pairwise_sq_distances(a, b)
        monkeypatch.setattr(distance, "_SUM_CHUNK_BYTES", 4 * 8 * 13)  # 12 chunks
        assert pairwise_sq_distances(a, b).tobytes() == whole.tobytes()
        a_sq = np.einsum("ij,ij->i", a, a)
        b_sq = np.einsum("ij,ij->i", b, b)
        textbook = np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)
        assert np.array_equal(whole, textbook)

    def test_norms_of_a_row_slice_are_the_slice_of_the_norms(self):
        # A tile takes its row side's norms from the whole matrix's operand.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(300, 37)) * 40.0 + 7.0
        x_sq = np.einsum("ij,ij->i", x, x)
        operand = tile_operand(x)
        for start, stop in [(0, 300), (0, 1), (5, 6), (17, 250), (128, 256), (299, 300)]:
            part = x[start:stop]
            assert np.einsum("ij,ij->i", part, part).tobytes() == x_sq[start:stop].tobytes()
            assert operand[start:stop].tobytes() == tile_operand(part).tobytes()

    def test_peak_memory_is_the_result_plus_one_chunk(self):
        # The textbook formula holds two more result-sized temporaries.
        n = 1024
        x = np.random.default_rng(9).normal(size=(n, 8))
        assert _traced_peak(lambda: pairwise_sq_distances(x, x)) < 1.25 * n * n * 8


def _spans(n):
    """(row start, row stop, column start, column stop) of each tile of
    tiles(n), in tile order."""
    return [(rows.start, rows.stop, columns.start, columns.stop) for rows, columns in tiles(n)]


class TestRowBlocks:
    """The tile partition: one tile within one block, 1 MiB tiles past it."""

    def test_default_budget_is_one_n1024_matrix(self):
        assert distance.BLOCK_BYTES == 8 * 1024 * 1024
        assert fits_one_block(1024) and not fits_one_block(1025)
        assert _spans(1024) == [(0, 1024, 0, 1024)]
        # Past one block, tiles of 128 rows by 1024 columns (1 MiB), each
        # strip from its diagonal on, whatever n is.
        assert 8 * distance.TILE_ROWS * distance.TILE_COLUMNS == 1024 * 1024
        assert _spans(1025)[:3] == [(0, 128, 0, 1024), (0, 128, 1024, 1025), (128, 256, 128, 1025)]
        assert _spans(1025)[-2:] == [(896, 1024, 896, 1025), (1024, 1025, 1024, 1025)]
        assert _spans(8192) == [
            (start, start + 128, first, min(first + 1024, 8192))
            for start in range(0, 8192, 128)
            for first in range(start, 8192, 1024)
        ]

    def test_blocks_cover_rows_once_with_short_last_block(self, tile_shape):
        # Strips of 7 rows, the last of 5, in tiles of 16 columns: every
        # entry from a row's strip diagonal on is read once, none before it.
        tile_shape(40, 7, 16)
        assert _spans(40)[:4] == [(0, 7, 0, 16), (0, 7, 16, 32), (0, 7, 32, 40), (7, 14, 7, 23)]
        assert _spans(40)[-1] == (35, 40, 35, 40)
        covered = np.zeros((40, 40), dtype=int)
        for rows, columns in tiles(40):
            covered[rows, columns] += 1
        strip_start = np.arange(40) // 7 * 7
        assert np.array_equal(covered, (np.arange(40)[None, :] >= strip_start[:, None]).astype(int))

    def test_budget_below_one_row_still_makes_progress(self, monkeypatch):
        # The smallest tile, one entry, still covers the upper triangle.
        monkeypatch.setattr(distance, "BLOCK_BYTES", 1)
        monkeypatch.setattr(distance, "TILE_ROWS", 1)
        monkeypatch.setattr(distance, "TILE_COLUMNS", 1)
        assert _spans(3) == [
            (0, 1, 0, 1), (0, 1, 1, 2), (0, 1, 2, 3), (1, 2, 1, 2), (1, 2, 2, 3), (2, 3, 2, 3)
        ]

    def test_no_rows_no_blocks(self):
        assert _spans(0) == []


class TestBlockedMatrix:
    # n is a multiple of 8 and so is every tile's start and size: there
    # OpenBLAS rounds every element the same way whatever the GEMM shape (see
    # the cluster_sense.distance docstring), so tiles match the slices of
    # the whole matrix computed as one tile bit for bit. pairwise_distances
    # builds only a one-block matrix, so the tests of several tiles compute
    # the tiles themselves.
    N, D, ROWS, COLUMNS = 320, 6, 128, 64

    def _matrix(self, seed=0):
        return np.random.default_rng(seed).normal(size=(self.N, self.D)) * 3.0 + 1.0

    def _whole(self, x):
        return tile(tile_operand(x), slice(0, self.N), slice(0, self.N))

    def test_several_blocks_equal_one_shot_bit_for_bit(self, tile_shape):
        x = self._matrix()
        tile_shape(self.N, self.ROWS, self.COLUMNS)
        assert _spans(self.N)[:3] == [(0, 128, 0, 64), (0, 128, 64, 128), (0, 128, 128, 192)]
        assert _spans(self.N)[-1] == (256, 320, 256, 320)
        assert np.array_equal(np.triu(_assembled(x)), np.triu(self._whole(x)))

    def test_several_blocks_symmetric_with_zero_diagonal(self, tile_shape):
        # Entry (i, j) adds |x_i|^2 before |x_j|^2 inside the product and
        # (j, i) the other way round, so the two agree within rounding; each
        # pair is computed once, in the tile of the earlier row's strip.
        x = self._matrix(1)
        tile_shape(self.N, self.ROWS, self.COLUMNS)
        d = _assembled(x)
        whole = self._whole(x)
        np.testing.assert_allclose(whole, whole.T, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(d, whole.T, rtol=1e-13, atol=0.0)
        assert np.all(np.diag(d) == 0.0)

    def test_single_block_equals_one_shot_bit_for_bit(self):
        # The dim256 benchmark shape: n = 1024 fills the default budget exactly.
        x = np.random.default_rng(2).normal(size=(1024, 288))
        assert fits_one_block(1024)
        assert np.array_equal(pairwise_distances(x), _one_shot(x))

    def test_rows_are_slices_of_the_matrix(self):
        x = self._matrix(3)
        operand = tile_operand(x)
        whole = self._whole(x)
        spans = [(0, 128, 0, 320), (256, 320, 256, 320), (5, 7, 5, 320), (8, 136, 8, 320),
                 (17, 250, 17, 320), (0, 128, 128, 256), (8, 16, 200, 320), (40, 48, 0, 64)]
        for start, stop, first, last in spans:
            rows = tile(operand, slice(start, stop), slice(first, last))
            assert rows.shape == (stop - start, last - first)
            if all(v % 8 == 0 for v in (start, stop, first)):
                assert np.array_equal(rows, whole[start:stop, first:last])
            np.testing.assert_allclose(rows, whole[start:stop, first:last], rtol=1e-13, atol=0.0)
        # numpy computes a one-row product with GEMV, which may round apart.
        one_row = tile(operand, slice(5, 6), slice(5, self.N))
        np.testing.assert_allclose(one_row, whole[5:6, 5:], rtol=1e-13, atol=0.0)
        assert one_row[0, 0] == 0.0

    def test_panels_from_a_first_column(self):
        # A tile from its strip's diagonal on, or right of it, written into
        # `out` when given. The augmented product adds the norms inside the
        # GEMM, so it rounds apart from the expansion of
        # pairwise_sq_distances, within rounding; entries on the diagonal
        # are exactly zero.
        x = self._matrix(5)
        full = _one_shot(x)
        operand = tile_operand(x)
        spans = [(0, 128, 0, 320), (128, 256, 128, 192), (256, 320, 256, 320), (5, 17, 5, 320),
                 (40, 41, 40, 320), (0, 16, 8, 40), (16, 32, 64, 320)]
        for start, stop, first, last in spans:
            rows, columns = slice(start, stop), slice(first, last)
            block = tile(operand, rows, columns)
            assert block.shape == (stop - start, last - first)
            np.testing.assert_allclose(block, full[rows, columns], rtol=1e-13, atol=0.0)
            diagonal = np.arange(max(start, first), min(stop, last))
            assert np.all(block[diagonal - start, diagonal - first] == 0.0)
            out = np.empty_like(block)
            assert tile(operand, rows, columns, out) is out
            assert out.tobytes() == block.tobytes()

    def test_any_n_matches_one_shot_within_rounding(self, tile_shape):
        # For n that is not a multiple of the GEMM tile width the edge columns
        # may round differently from the one-shot matrix; only the last bits.
        x = np.random.default_rng(4).normal(size=(301, 9))
        tile_shape(301, 64, 100)
        assert _spans(301)[-1] == (256, 301, 256, 301)
        d = _assembled(x)
        np.testing.assert_allclose(d, _one_shot(x), rtol=1e-13, atol=0.0)
        assert np.all(np.diag(d) == 0.0)

    @pytest.mark.parametrize("n, rows", [(1025, 511), (1024, 32)])
    def test_several_blocks_raise_before_allocating(self, tile_shape, n, rows):
        # numpy reports its buffers to tracemalloc: the call allocates less
        # than one strip before it refuses the whole matrix.
        x = np.random.default_rng(5).normal(size=(n, 8))
        tile_shape(n, rows)

        def refused():
            with pytest.raises(ValueError, match="more than one block"):
                pairwise_distances(x)

        assert _traced_peak(refused) < rows * n * 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_inputs(self, n):
        x = np.arange(n * 2, dtype=float).reshape(n, 2)
        assert np.array_equal(pairwise_distances(x), _one_shot(x))


# Every public function that takes a precomputed `distances`, called on the
# points `x` with `given` as that matrix.
TAKES_DISTANCES = {
    "kmeanspp_init": lambda x, given: kmeanspp_init(x, 3, derive_rng(0), distances=given),
    "fit": lambda x, given: fit(x, KMeansConfig(k=3), distances=given),
    "silhouette": lambda x, given: silhouette(x, [np.arange(len(x)) % 3], given),
    "evaluate_clustering": lambda x, given: evaluate_clustering(
        x, [np.arange(len(x)) % 3], np.arange(len(x)) % 2, distances=given
    ),
}


class TestCheckDistances:
    """A given distance matrix is one block or nothing, checked in one place."""

    @pytest.mark.parametrize("caller", list(TAKES_DISTANCES))
    def test_a_matrix_past_one_block_is_refused_alike(self, tile_shape, caller):
        # pairwise_distances' own matrix, once n no longer fits one block:
        # every caller raises one error, which names their remedy (pass no
        # matrix), not pairwise_distances' (read tiles).
        x = np.random.default_rng(7).normal(size=(40, 3))
        given = pairwise_distances(x)
        tile_shape(40, 8, 16)
        with pytest.raises(ValueError) as refused:
            TAKES_DISTANCES[caller](x, given)
        assert str(refused.value) == (
            "a 40 x 40 distance matrix is more than one block; "
            "pass no distances, and the points are read instead"
        )

    @pytest.mark.parametrize("caller", list(TAKES_DISTANCES))
    @pytest.mark.parametrize(
        "n, side, message",
        [
            (100, 2000, r"distances must have shape \(100, 100\), got \(2000, 2000\)"),
            (1100, 1100, "a 1100 x 1100 distance matrix is more than one block"),
        ],
        ids=["wrong-shape", "past-one-block"],
    )
    def test_refused_before_it_is_converted(self, caller, n, side, message):
        # numpy reports its buffers to tracemalloc. A float32 matrix of the
        # wrong shape, or one past one block, is refused before its float64
        # copy, twice its size, is made: the call holds less than the input.
        x = np.random.default_rng(8).normal(size=(n, 3))
        given = np.zeros((side, side), dtype=np.float32)

        def refused():
            with pytest.raises(ValueError, match=message):
                TAKES_DISTANCES[caller](x, given)

        assert _traced_peak(refused) < given.nbytes


class TestPanel:
    """The augmented product silhouette computes its tiles with."""

    def test_operand_is_the_points_a_one_and_their_squared_norms(self):
        x = np.random.default_rng(15).normal(size=(37, 5)) * 4.0 - 2.0
        operand = tile_operand(x)
        assert operand.shape == (37, 7) and operand.flags.c_contiguous
        assert operand[:, :5].tobytes() == x.tobytes()
        assert np.all(operand[:, 5] == 1.0)
        assert operand[:, 6].tobytes() == np.einsum("ij,ij->i", x, x).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 10.0, 1e3])
    def test_error_is_in_the_class_of_the_expansion(self, offset):
        # Against distances from direct differences, the augmented product's
        # worst relative error over eight draws stays within twice the
        # |a|^2 + |b|^2 - 2ab expansion's: both cancel the same norms.
        worst = {"tile": 0.0, "expansion": 0.0}
        off = ~np.eye(200, dtype=bool)
        whole = slice(0, 200)
        for seed in range(8):
            x = np.random.default_rng(seed).normal(size=(200, 12)) + offset
            reference = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
            for name, d in (("tile", tile(tile_operand(x), whole, whole)), ("expansion", _one_shot(x))):
                error = np.abs(d - reference)[off] / reference[off]
                worst[name] = max(worst[name], float(error.max()))
        assert worst["tile"] <= 2.0 * worst["expansion"]

    def test_product_runs_pinned(self, controlled_blas, kernel_pins):
        # One product per tile, inside its own pin at depth 1.
        x = np.random.default_rng(16).normal(size=(64, 300))
        operand = tile_operand(x)
        for start, stop in [(0, 32), (32, 64)]:
            tile(operand, slice(start, stop), slice(start, 64))
        assert kernel_pins.products == [(__name__, 1, 1)] * 2
        assert distance.blas_thread_count() == controlled_blas


class TestForEachRowBlock:
    """distance.for_each_tile: which threads run the tiles, pinned how."""

    N = 40

    def _run(self):
        """(span, thread, BLAS thread count, out) of each tile, in call order."""
        seen = []
        lock = threading.Lock()

        def work(rows, columns, out):
            with lock:
                span = (rows.start, rows.stop, columns.start, columns.stop)
                seen.append((span, threading.get_ident(), distance.blas_thread_count(), out))

        distance.for_each_tile(self.N, work)
        return seen

    def test_blocks_run_once_each_pinned_on_up_to_blas_threads(self, tile_shape, controlled_blas):
        # The calling thread is one of at most T threads that run tiles.
        tile_shape(self.N, 4, 16)
        seen = self._run()
        assert sorted(span for span, *_ in seen) == _spans(self.N)
        assert {count for _, _, count, _ in seen} == {1}
        threads = {thread for _, thread, _, _ in seen}
        assert len(threads | {threading.get_ident()}) <= controlled_blas
        assert distance.blas_thread_count() == controlled_blas

    def test_each_thread_reuses_one_tile_buffer(self, tile_shape, controlled_blas):
        # out is the tile's shape, C-contiguous, and a view of the one
        # TILE_ROWS x TILE_COLUMNS buffer its thread takes every tile into.
        tile_shape(self.N, 4, 16)
        seen = self._run()
        buffers = {}
        for (start, stop, first, last), thread, _, out in seen:
            assert out.shape == (stop - start, last - first) and out.flags.c_contiguous
            assert out.base.size == 4 * 16
            buffers.setdefault(thread, set()).add(id(out.base))
        assert all(len(ids) == 1 for ids in buffers.values())

    def test_one_block_is_one_tile_on_the_calling_thread_without_a_buffer(self, controlled_blas):
        seen = self._run()
        assert [(span, thread, out) for span, thread, _, out in seen] == [
            ((0, self.N, 0, self.N), threading.get_ident(), None)
        ]

    def test_inside_a_pin_blocks_run_on_the_calling_thread(self, tile_shape, controlled_blas):
        tile_shape(self.N, 4, 16)
        with distance._single_blas_thread():
            seen = self._run()
        assert [span for span, *_ in seen] == _spans(self.N)
        assert {thread for _, thread, _, _ in seen} == {threading.get_ident()}

    def test_uncontrollable_blas_runs_blocks_serially_without_a_pool(self, monkeypatch, tile_shape):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(distance, "_openblas_thread_controls", lambda: None)
        monkeypatch.setattr(distance, "ThreadPoolExecutor", no_pool)
        tile_shape(self.N, 4, 16)
        seen = self._run()
        assert [span for span, *_ in seen] == _spans(self.N)
        assert {thread for _, thread, _, _ in seen} == {threading.get_ident()}
        assert {count for _, _, count, _ in seen} == {None}

    def test_one_block_runs_work_and_commit_inside_its_own_pin(self, controlled_blas):
        # No helper thread runs, yet work and commit see one BLAS thread at
        # depth 1: for_each_tile's pin, which silhouette's per-cluster
        # products run under.
        seen = []

        def record(*args):
            seen.append((distance.blas_thread_count(), distance._blas_pin_depth))

        distance.for_each_tile(self.N, record, record)
        assert seen == [(1, 1)] * 2
        assert distance.blas_thread_count() == controlled_blas

    def test_single_block_matrix_is_computed_pinned(self, controlled_blas, kernel_pins):
        # One product, inside the kernel's pin at depth 1: the caller holds
        # no pin of its own.
        x = np.random.default_rng(14).normal(size=(self.N, 3))
        expected = _one_shot(x)
        kernel_pins.products.clear()
        assert np.array_equal(pairwise_distances(x), expected)
        assert kernel_pins.products == [("cluster_sense.distance", 1, 1)]
        assert distance.blas_thread_count() == controlled_blas


class TestOrderedCommit:
    N = 40  # ten 4-row strips

    def test_commits_follow_their_block_in_block_order_one_at_a_time(
        self, tile_shape, controlled_blas
    ):
        # Later tiles finish first; each still commits in tile order, on the
        # thread that ran its tile, with what that tile returned, and no two
        # commits overlap. The calling thread is one of at most T threads.
        tile_shape(self.N, 4, 16)
        lock = threading.Lock()
        committed, active = [], []

        def work(rows, columns, out):
            time.sleep(0.002 * (self.N - rows.start) / 4)
            return (rows.start, rows.stop, columns.start, columns.stop), threading.get_ident()

        def commit(rows, columns, result):
            with lock:
                active.append(1)
                overlapping = len(active)
            time.sleep(0.001)
            span = (rows.start, rows.stop, columns.start, columns.stop)
            committed.append((span, result, threading.get_ident(), overlapping))
            with lock:
                active.pop()

        distance.for_each_tile(self.N, work, commit)
        assert [span for span, *_ in committed] == _spans(self.N)
        assert all(result == (span, thread) for span, result, thread, _ in committed)
        assert {overlapping for *_, overlapping in committed} == {1}
        threads = {thread for _, _, thread, _ in committed}
        assert len(threads | {threading.get_ident()}) <= controlled_blas

    def test_each_thread_holds_one_result_until_its_commit(self, tile_shape, controlled_blas):
        # The first tile holds up every commit: the other thread finishes
        # its tile and waits, so T tiles are started and not committed,
        # and never more.
        tile_shape(self.N, 4)
        lock = threading.Lock()
        counts = {"started": 0, "committed": 0, "most": 0}

        def work(rows, columns, out):
            with lock:
                counts["started"] += 1
                counts["most"] = max(counts["most"], counts["started"] - counts["committed"])
            if rows.start == 0:
                time.sleep(0.2)

        def commit(rows, columns, result):
            with lock:
                counts["committed"] += 1

        distance.for_each_tile(self.N, work, commit)
        assert counts["committed"] == len(_spans(self.N))
        assert counts["most"] == controlled_blas

    def test_more_threads_than_cores_lose_no_commit(self, monkeypatch, tile_shape):
        # Six threads, one-row strips and a shortened switch interval: a
        # commit that overlapped another, or ran out of turn, would lose an
        # update to the counter or break the order.
        monkeypatch.setattr(distance, "blas_thread_count", lambda: 6)
        tile_shape(self.N, 1)
        counter = {"value": 0}
        order = []

        def commit(rows, columns, result):
            value = counter["value"]
            time.sleep(0)  # invites a switch inside the read-modify-write
            counter["value"] = value + 1
            order.append(result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=distance.for_each_tile,
                args=(self.N, lambda rows, columns, out: rows.start, commit),
                daemon=True,
            )
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert counter["value"] == self.N
        assert order == list(range(self.N))

    @pytest.mark.parametrize("where", ["work", "commit"])
    def test_an_error_releases_waiting_blocks_and_starts_no_other(
        self, tile_shape, controlled_blas, where
    ):
        # Tile 2 of 10 raises. Tiles 0 and 1 commit; of the rest only those
        # already running finish their work, and none commits.
        tile_shape(self.N, 4)
        started, committed = [], []

        def work(rows, columns, out):
            started.append(rows.start)
            if where == "work" and rows.start == 8:
                time.sleep(0.05)  # long enough for tile 1 to commit
                raise TypeError("bug in tile 8")

        def commit(rows, columns, result):
            if where == "commit" and rows.start == 8:
                raise TypeError("bug in tile 8")
            committed.append(rows.start)

        with pytest.raises(TypeError, match="bug in tile 8"):
            distance.for_each_tile(self.N, work, commit)
        assert committed == [0, 4]
        assert max(started) <= 4 * (2 + controlled_blas - 1)
        assert distance.blas_thread_count() == controlled_blas
        assert distance._blas_pin_depth == 0


class TestMapOnOneBlasThread:
    def test_items_run_on_the_caller_and_up_to_t_minus_1_helpers(self, controlled_blas):
        # Each item waits a little, so every participant takes some; the
        # results keep the items' order.
        seen = []

        def work(item):
            time.sleep(0.002)
            seen.append((threading.get_ident(), distance.blas_thread_count()))
            return item * item

        assert distance.map_on_one_blas_thread(work, range(30), 3) == [i * i for i in range(30)]
        threads = {thread for thread, _ in seen}
        assert threading.get_ident() in threads and len(threads) <= 3
        assert {count for _, count in seen} == {1}
        assert distance.blas_thread_count() == controlled_blas

    def test_one_thread_runs_on_the_caller_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(distance, "ThreadPoolExecutor", no_pool)
        seen = []
        assert distance.map_on_one_blas_thread(lambda item: seen.append(item) or -item, [3, 1, 2], 1) == [-3, -1, -2]
        assert seen == [3, 1, 2]

    def test_only_helper_threads_pin_blas(self, controlled_blas):
        # One thread is a plain loop on the caller, at OpenBLAS's own count
        # and no pin; with a helper, every item runs at one BLAS thread
        # inside the one pin.
        def work(item):
            time.sleep(0.002)
            return threading.get_ident(), distance.blas_thread_count(), distance._blas_pin_depth

        alone = distance.map_on_one_blas_thread(work, range(6), 1)
        assert alone == [(threading.get_ident(), controlled_blas, 0)] * 6
        pooled = distance.map_on_one_blas_thread(work, range(6), 2)
        assert {(count, depth) for _, count, depth in pooled} == {(1, 1)}
        assert distance.blas_thread_count() == controlled_blas

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_first_error_propagates_drops_queued_items_and_restores_blas(
        self, controlled_blas, where
    ):
        # The first item the failing participant takes raises at once; the
        # other participant's item raises later. The first error propagates,
        # no further item starts, and the count and pin depth come back.
        caller = threading.get_ident()
        started = []

        def work(item):
            started.append(item)
            if (threading.get_ident() == caller) == (where == "caller"):
                raise TypeError(f"bug on the {where}")
            time.sleep(0.2)
            raise ValueError("a later error")

        with pytest.raises(TypeError, match=f"bug on the {where}"):
            distance.map_on_one_blas_thread(work, range(100), 2)
        assert len(started) <= 2 and set(started) <= {0, 1}
        assert distance.blas_thread_count() == controlled_blas
        assert distance._blas_pin_depth == 0


class TestBlasCoreName:
    def test_names_the_kernel_of_the_loaded_openblas(self, controlled_blas):
        # The same library whose thread count the pin controls reports it.
        name = distance.blas_core_name()
        assert isinstance(name, str) and name and name.isprintable()
        assert name == distance.blas_core_name()

    def test_none_for_another_blas(self, monkeypatch):
        monkeypatch.setattr(distance, "_openblas", lambda: None)
        assert distance.blas_core_name() is None
