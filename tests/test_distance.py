"""Row-block distance kernel tests: block layout, one-shot equivalence, memory
shape, and the BLAS threading blocks run under."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from cluster_sense import distance
from cluster_sense.distance import (
    pairwise_distances,
    pairwise_sq_distances,
    panel,
    panel_operand,
    row_blocks,
)


def _one_shot(x):
    """The whole-matrix formula the blocked kernel replaces."""
    d = np.sqrt(pairwise_sq_distances(x, x))
    np.fill_diagonal(d, 0.0)
    return d


def _assembled(x):
    """The n x n matrix assembled from the panels silhouette computes, each
    row block from its diagonal on, mirrored below the diagonal."""
    n = len(x)
    operand = panel_operand(x)
    full = np.empty((n, n))
    for start, stop in row_blocks(n):
        full[start:stop, start:] = panel(operand, start, stop)
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
        # A panel takes its row side's norms from the whole matrix's operand.
        rng = np.random.default_rng(10)
        x = rng.normal(size=(300, 37)) * 40.0 + 7.0
        x_sq = np.einsum("ij,ij->i", x, x)
        operand = panel_operand(x)
        for start, stop in [(0, 300), (0, 1), (5, 6), (17, 250), (128, 256), (299, 300)]:
            part = x[start:stop]
            assert np.einsum("ij,ij->i", part, part).tobytes() == x_sq[start:stop].tobytes()
            assert operand[start:stop].tobytes() == panel_operand(part).tobytes()

    def test_peak_memory_is_the_result_plus_one_chunk(self):
        # The textbook formula holds two more result-sized temporaries.
        n = 1024
        x = np.random.default_rng(9).normal(size=(n, 8))
        assert _traced_peak(lambda: pairwise_sq_distances(x, x)) < 1.25 * n * n * 8


class TestRowBlocks:
    def test_default_budget_is_one_n1024_matrix(self):
        assert distance.BLOCK_BYTES == 8 * 1024 * 1024
        assert row_blocks(1024) == [(0, 1024)]
        # Above one block, each block holds half the budget.
        assert row_blocks(1025) == [(0, 511), (511, 1022), (1022, 1025)]
        assert row_blocks(8192) == [(s, s + 64) for s in range(0, 8192, 64)]

    def test_blocks_cover_rows_once_with_short_last_block(self, block_rows):
        block_rows(40, 7)
        blocks = row_blocks(40)
        assert blocks == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 35), (35, 40)]

    def test_budget_below_one_row_still_makes_progress(self, monkeypatch):
        monkeypatch.setattr(distance, "BLOCK_BYTES", 1)
        assert row_blocks(3) == [(0, 1), (1, 2), (2, 3)]

    def test_no_rows_no_blocks(self):
        assert row_blocks(0) == []


class TestBlockedMatrix:
    # n is a multiple of 8 and so is every block's start and size: there
    # OpenBLAS rounds every element the same way whatever the GEMM shape (see
    # the cluster_sense.distance docstring), so panels match the slices of
    # the whole matrix computed as one panel bit for bit. pairwise_distances
    # builds only a one-block matrix, so the tests of several blocks compute
    # the panels themselves.
    N, D, ROWS = 320, 6, 128

    def _matrix(self, seed=0):
        return np.random.default_rng(seed).normal(size=(self.N, self.D)) * 3.0 + 1.0

    def test_several_blocks_equal_one_shot_bit_for_bit(self, block_rows):
        x = self._matrix()
        block_rows(self.N, self.ROWS)
        assert row_blocks(self.N) == [(0, 128), (128, 256), (256, 320)]
        whole = panel(panel_operand(x), 0, self.N)
        assert np.array_equal(np.triu(_assembled(x)), np.triu(whole))

    def test_several_blocks_symmetric_with_zero_diagonal(self, block_rows):
        # Entry (i, j) adds |x_i|^2 before |x_j|^2 inside the product and
        # (j, i) the other way round, so the two agree within rounding; each
        # pair is computed once, in the panel of the earlier row.
        x = self._matrix(1)
        block_rows(self.N, self.ROWS)
        d = _assembled(x)
        whole = panel(panel_operand(x), 0, self.N)
        np.testing.assert_allclose(whole, whole.T, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(d, whole.T, rtol=1e-13, atol=0.0)
        assert np.all(np.diag(d) == 0.0)

    def test_single_block_equals_one_shot_bit_for_bit(self):
        # The dim256 benchmark shape: n = 1024 fills the default budget exactly.
        x = np.random.default_rng(2).normal(size=(1024, 288))
        assert len(row_blocks(1024)) == 1
        assert np.array_equal(pairwise_distances(x), _one_shot(x))

    def test_rows_are_slices_of_the_matrix(self):
        x = self._matrix(3)
        operand = panel_operand(x)
        whole = panel(operand, 0, self.N)
        for start, stop in [(0, 128), (256, 320), (5, 7), (8, 136), (17, 250)]:
            rows = panel(operand, start, stop)
            assert rows.shape == (stop - start, self.N - start)
            if start % 8 == 0 and (stop - start) % 8 == 0:
                assert np.array_equal(rows, whole[start:stop, start:])
            np.testing.assert_allclose(rows, whole[start:stop, start:], rtol=1e-13, atol=0.0)
        # numpy computes a one-row product with GEMV, which may round apart.
        np.testing.assert_allclose(panel(operand, 5, 6), whole[5:6, 5:], rtol=1e-13, atol=0.0)
        assert panel(operand, 5, 6)[0, 0] == 0.0

    def test_panels_from_a_first_column(self):
        # Silhouette's panels start at their block's diagonal, the block's
        # first row, written into `out` when given. The augmented product
        # adds the norms inside the GEMM, so it rounds apart from the
        # expansion of pairwise_sq_distances, within rounding.
        x = self._matrix(5)
        full = _one_shot(x)
        operand = panel_operand(x)
        for start, stop in [(0, 128), (128, 256), (256, 320), (5, 17), (40, 41)]:
            block = panel(operand, start, stop)
            assert block.shape == (stop - start, self.N - start)
            np.testing.assert_allclose(block, full[start:stop, start:], rtol=1e-13, atol=0.0)
            diagonal = np.arange(stop - start)
            assert np.all(block[diagonal, diagonal] == 0.0)
            out = np.empty_like(block)
            assert panel(operand, start, stop, out) is out
            assert out.tobytes() == block.tobytes()

    def test_any_n_matches_one_shot_within_rounding(self, block_rows):
        # For n that is not a multiple of the GEMM tile width the edge columns
        # may round differently from the one-shot matrix; only the last bits.
        x = np.random.default_rng(4).normal(size=(301, 9))
        block_rows(301, 64)
        assert row_blocks(301)[-1] == (256, 301)
        d = _assembled(x)
        np.testing.assert_allclose(d, _one_shot(x), rtol=1e-13, atol=0.0)
        assert np.all(np.diag(d) == 0.0)

    @pytest.mark.parametrize("n, rows", [(1025, 511), (1024, 32)])
    def test_several_blocks_raise_before_allocating(self, block_rows, n, rows):
        # numpy reports its buffers to tracemalloc: the call allocates less
        # than one block before it refuses the whole matrix.
        x = np.random.default_rng(5).normal(size=(n, 8))
        block_rows(n, rows)

        def refused():
            with pytest.raises(ValueError, match="more than one row block"):
                pairwise_distances(x)

        assert _traced_peak(refused) < rows * n * 8

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_inputs(self, n):
        x = np.arange(n * 2, dtype=float).reshape(n, 2)
        assert np.array_equal(pairwise_distances(x), _one_shot(x))


class TestPanel:
    """The augmented product silhouette computes its panels with."""

    def test_operand_is_the_points_a_one_and_their_squared_norms(self):
        x = np.random.default_rng(15).normal(size=(37, 5)) * 4.0 - 2.0
        operand = panel_operand(x)
        assert operand.shape == (37, 7) and operand.flags.c_contiguous
        assert operand[:, :5].tobytes() == x.tobytes()
        assert np.all(operand[:, 5] == 1.0)
        assert operand[:, 6].tobytes() == np.einsum("ij,ij->i", x, x).tobytes()

    @pytest.mark.parametrize("offset", [0.0, 10.0, 1e3])
    def test_error_is_in_the_class_of_the_expansion(self, offset):
        # Against distances from direct differences, the augmented product's
        # worst relative error over eight draws stays within twice the
        # |a|^2 + |b|^2 - 2ab expansion's: both cancel the same norms.
        worst = {"panel": 0.0, "expansion": 0.0}
        off = ~np.eye(200, dtype=bool)
        for seed in range(8):
            x = np.random.default_rng(seed).normal(size=(200, 12)) + offset
            reference = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2))
            for name, d in (("panel", panel(panel_operand(x), 0, 200)), ("expansion", _one_shot(x))):
                error = np.abs(d - reference)[off] / reference[off]
                worst[name] = max(worst[name], float(error.max()))
        assert worst["panel"] <= 2.0 * worst["expansion"]

    def test_product_runs_pinned(self, controlled_blas, kernel_pins):
        # One product per panel, inside its own pin at depth 1.
        x = np.random.default_rng(16).normal(size=(64, 300))
        operand = panel_operand(x)
        for start, stop in [(0, 32), (32, 64)]:
            panel(operand, start, stop)
        assert kernel_pins.products == [(__name__, 1, 1)] * 2
        assert distance.blas_thread_count() == controlled_blas


class TestForEachRowBlock:
    N = 40

    def _run(self):
        """(start, stop, thread, BLAS thread count) of each block, in call order."""
        seen = []
        lock = threading.Lock()

        def work(start, stop):
            with lock:
                seen.append(
                    (start, stop, threading.get_ident(), distance.blas_thread_count())
                )

        distance.for_each_row_block(self.N, work)
        return seen

    def test_blocks_run_once_each_pinned_on_up_to_blas_threads(self, block_rows, controlled_blas):
        block_rows(self.N, 4)
        seen = self._run()
        assert sorted((start, stop) for start, stop, _, _ in seen) == row_blocks(self.N)
        assert {count for *_, count in seen} == {1}
        threads = {thread for _, _, thread, _ in seen}
        assert len(threads) <= controlled_blas and threading.get_ident() not in threads
        assert distance.blas_thread_count() == controlled_blas

    def test_inside_a_pin_blocks_run_on_the_calling_thread(self, block_rows, controlled_blas):
        block_rows(self.N, 4)
        with distance._single_blas_thread():
            seen = self._run()
        assert [(start, stop) for start, stop, _, _ in seen] == row_blocks(self.N)
        assert {thread for _, _, thread, _ in seen} == {threading.get_ident()}

    def test_uncontrollable_blas_runs_blocks_serially_without_a_pool(self, monkeypatch, block_rows):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(distance, "_openblas_thread_controls", lambda: None)
        monkeypatch.setattr(distance, "ThreadPoolExecutor", no_pool)
        block_rows(self.N, 4)
        seen = self._run()
        assert [(start, stop) for start, stop, _, _ in seen] == row_blocks(self.N)
        assert {thread for _, _, thread, _ in seen} == {threading.get_ident()}
        assert {count for *_, count in seen} == {None}

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
    N = 40  # ten 4-row blocks

    def test_commits_follow_their_block_in_block_order_one_at_a_time(
        self, block_rows, controlled_blas
    ):
        # Later blocks finish first; each still commits in block order, on
        # the thread that ran its block, with what that block returned, and
        # no two commits overlap.
        block_rows(self.N, 4)
        lock = threading.Lock()
        committed, active = [], []

        def work(start, stop):
            time.sleep(0.002 * (self.N - start) / 4)
            return start, stop, threading.get_ident()

        def commit(start, stop, result):
            with lock:
                active.append(1)
                overlapping = len(active)
            time.sleep(0.001)
            committed.append((start, stop, result, threading.get_ident(), overlapping))
            with lock:
                active.pop()

        distance.for_each_row_block(self.N, work, commit)
        assert [(start, stop) for start, stop, *_ in committed] == row_blocks(self.N)
        assert all(result == (start, stop, thread) for start, stop, result, thread, _ in committed)
        assert {overlapping for *_, overlapping in committed} == {1}
        assert threading.get_ident() not in {thread for *_, thread, _ in committed}

    def test_each_thread_holds_one_result_until_its_commit(self, block_rows, controlled_blas):
        # The first block holds up every commit: the other thread finishes
        # its block and waits, so T blocks are started and not committed,
        # and never more.
        block_rows(self.N, 4)
        lock = threading.Lock()
        counts = {"started": 0, "committed": 0, "most": 0}

        def work(start, stop):
            with lock:
                counts["started"] += 1
                counts["most"] = max(counts["most"], counts["started"] - counts["committed"])
            if start == 0:
                time.sleep(0.2)

        def commit(start, stop, result):
            with lock:
                counts["committed"] += 1

        distance.for_each_row_block(self.N, work, commit)
        assert counts["committed"] == len(row_blocks(self.N))
        assert counts["most"] == controlled_blas

    def test_more_threads_than_cores_lose_no_commit(self, monkeypatch, block_rows):
        # Six threads, one-row blocks and a shortened switch interval: a
        # commit that overlapped another, or ran out of turn, would lose an
        # update to the counter or break the order.
        monkeypatch.setattr(distance, "blas_thread_count", lambda: 6)
        block_rows(self.N, 1)
        counter = {"value": 0}
        order = []

        def commit(start, stop, result):
            value = counter["value"]
            time.sleep(0)  # invites a switch inside the read-modify-write
            counter["value"] = value + 1
            order.append(result)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(
                target=distance.for_each_row_block,
                args=(self.N, lambda start, stop: start, commit),
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
        self, block_rows, controlled_blas, where
    ):
        # Block 2 of 10 raises. Blocks 0 and 1 commit; of the rest only those
        # already running finish their work, and none commits.
        block_rows(self.N, 4)
        started, committed = [], []

        def work(start, stop):
            started.append(start)
            if where == "work" and start == 8:
                time.sleep(0.05)  # long enough for block 1 to commit
                raise TypeError("bug in block 8")

        def commit(start, stop, result):
            if where == "commit" and start == 8:
                raise TypeError("bug in block 8")
            committed.append(start)

        with pytest.raises(TypeError, match="bug in block 8"):
            distance.for_each_row_block(self.N, work, commit)
        assert committed == [0, 4]
        assert max(started) <= 4 * (2 + controlled_blas - 1)
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
