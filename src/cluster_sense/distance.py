"""Shared Euclidean distance kernels and the BLAS threading they run under.

Both the clusterer and the geometry metrics go through these helpers so that
a metric computed inside a sweep is bit-identical to one computed by calling
the metric function directly on the same matrix.

The n x n distance matrix is computed in row blocks (row_blocks), so its one
reader, silhouette, needs O(block * n) memory for it instead of O(n^2). A
matrix that fits BLOCK_BYTES is one block; a larger one is split into blocks
of half that budget. Only a one-block matrix is ever held whole:
pairwise_distances builds it in a single product of pairwise_sq_distances'
|a|^2 + |b|^2 - 2ab expansion, and the sweep shares it between k-means++ and
silhouette. Silhouette reads each block of a larger matrix as a panel, its
columns from the block's diagonal on, so each pair is computed once. A
panel is one product of augmented operands: the column side
[x | 1 | |x|^2] (panel_operand, n x (d + 2), built once per matrix) and the
block's row side [-2 x_I | |x_I|^2 | 1], so the GEMM adds the norms inside
its sum and no elementwise pass but the clamp, the square root and the
diagonal follows. It rounds like the expansion, with the same cancellation
of the norms, but not to its bits; its distances hold n * (d + 2) more
floats than the panels themselves. A panel matches the slice of the same
product over the whole matrix bit for bit only where the BLAS GEMM rounds
every element the same way whatever the operand shape (with OpenBLAS 0.3.31
on an AVX-512 x86-64 CPU: block starts and sizes multiples of 8 and no
one-row block, which numpy computes with GEMV). So a given n always splits
into the same blocks, and results stay reproducible.

Every BLAS product in the package runs on one BLAS thread, under a pin
this module holds. pairwise_sq_distances and panel pin their own products,
so k-means++'s center distances, Lloyd's assignment steps, the distance
matrix, silhouette's panels and Davies-Bouldin's centroid distances run
pinned wherever they are called from; for_each_row_block holds the pin
around the work and the commits it runs, which covers silhouette's
per-cluster products. OpenBLAS rounds a product differently at different
thread counts, so a product
computed on several BLAS threads by a serial sweep would not have the bits
of the same product computed by a pooled sweep, which runs on one; with
every product pinned the two agree by construction, not by how one BLAS
build happens to round. Pinned products also never wake OpenBLAS's own
threads, which would keep spinning for a while after each product and take
CPU from the threads that do the work. Cores are kept busy by the sweep's
worker pool and by for_each_row_block, which spreads a matrix of several
blocks over as many threads as BLAS had, one whole block per thread. There
a block's work writes only its own block, while other blocks run; what it
adds to rows of other blocks it hands to its commit, which runs once every
earlier block has committed, one commit at a time. Neither the partition
nor the commit order depends on the thread count, so neither do the bits.
A serial sweep of matrices that fit one block runs on one core.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

import numpy as np

# Byte budget of a distance matrix computed as one block: one n = 1024
# matrix. A larger matrix is split into blocks of half this budget, so that
# two blocks in flight on two threads take what one block took.
BLOCK_BYTES = 8 * 1024 * 1024
# Byte budget of the |a|^2 + |b|^2 temporary in pairwise_sq_distances.
_SUM_CHUNK_BYTES = 1024 * 1024


@functools.cache
def _openblas():
    """(library, symbol prefix, symbol suffix) of the OpenBLAS numpy has loaded.

    Finds the library among this process's mapped files and opens it without
    loading anything new; returns None for another BLAS or where there is no
    /proc/self/maps.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted(
                {
                    fields[5]
                    for fields in (line.rstrip("\n").split(maxsplit=5) for line in maps)
                    if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
                }
            )
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


def _openblas_function(name: str, argtypes: list, restype):
    """OpenBLAS's `name` function (symbol prefix and suffix added), typed; or None."""
    found = _openblas()
    if found is None:
        return None
    lib, prefix, suffix = found
    function = getattr(lib, f"{prefix}_{name}{suffix}", None)
    if function is not None:
        function.argtypes, function.restype = argtypes, restype
    return function


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of the OpenBLAS numpy has loaded, or None."""
    get = _openblas_function("get_num_threads", [], ctypes.c_int)
    set_ = _openblas_function("set_num_threads", [ctypes.c_int], None)
    return None if get is None or set_ is None else (get, set_)


def blas_core_name() -> Optional[str]:
    """Name of the kernel OpenBLAS chose for this CPU, such as "SkylakeX".

    Products round differently on different kernels (AVX-512 against AVX2,
    say), so this names what a run's bits depend on. None for another BLAS.
    """
    corename = _openblas_function("get_corename", [], ctypes.c_char_p)
    return None if corename is None else corename().decode("ascii")


def blas_thread_count() -> Optional[int]:
    """Current OpenBLAS thread count, or None if it cannot be controlled."""
    controls = _openblas_thread_controls()
    return None if controls is None else controls[0]()


# The BLAS thread count is process-wide, so the pin's bookkeeping is too.
_blas_pin_lock = threading.Lock()
_blas_pin_depth = 0
_blas_pin_saved = 0


@contextlib.contextmanager
def _single_blas_thread():
    """Limit OpenBLAS to one thread for the body, then restore its count.

    Entered around every BLAS product (see the module docstring) and around
    a sweep's worker pool, whose threads already use every core; letting
    each of them also start BLAS threads oversubscribes the CPUs. Nested or
    overlapping uses share one pin, and the count seen on first entry comes
    back on last exit. Yields the thread count the body runs with, or None (and changes
    nothing) when the BLAS cannot be controlled.
    """
    global _blas_pin_depth, _blas_pin_saved
    controls = _openblas_thread_controls()
    if controls is None:
        yield None
        return
    get, set_ = controls
    with _blas_pin_lock:
        if _blas_pin_depth == 0:
            _blas_pin_saved = get()
            set_(1)
        _blas_pin_depth += 1
    try:
        yield 1
    finally:
        with _blas_pin_lock:
            _blas_pin_depth -= 1
            if _blas_pin_depth == 0:
                set_(_blas_pin_saved)


def pairwise_sq_distances(
    a: np.ndarray,
    b: np.ndarray,
    a_sq: np.ndarray | None = None,
    b_sq: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`.

    Uses the |a|^2 + |b|^2 - 2ab expansion (BLAS-backed); tiny negative
    values from cancellation are clipped to zero.

    a_sq and b_sq, when given, must be the squared row norms of `a` and `b`
    as computed by np.einsum("ij,ij->i", y, y) on the same float64 array (or
    on an array of which it is a row slice: a row's norm does not depend on
    the rows around it). A caller that measures many `b` against one `a` (a
    k-means fit), or many row blocks against one matrix, computes them once
    instead of once per call. The result is bit-identical either way.

    out, when given, is a C-contiguous float64 array of the result's shape;
    the product is written into it (the same GEMM, so the same bits) and it
    is returned.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    if b_sq is None:
        b_sq = np.einsum("ij,ij->i", b, b)
    # In place; (-2ab) + (|a|^2 + |b|^2) rounds exactly like
    # (|a|^2 + |b|^2) - 2ab. The norm sums are added a few rows at a time, so
    # the only result-sized buffer is the result itself. The product runs on
    # one BLAS thread, as every product does (see the module docstring).
    with _single_blas_thread():
        d2 = np.matmul(a, b.T, out=out)
    d2 *= -2.0
    step = max(1, _SUM_CHUNK_BYTES // (8 * max(b_sq.size, 1)))
    for start in range(0, d2.shape[0], step):
        d2[start : start + step] += a_sq[start : start + step, None] + b_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges covering an n x n float64 matrix.

    One block when the whole matrix fits BLOCK_BYTES; otherwise blocks of
    BLOCK_BYTES // 2 // (8 n) rows (at least one), the last possibly shorter.
    The partition depends on n alone.
    """
    row_bytes = 8 * max(n, 1)
    budget = BLOCK_BYTES if row_bytes * n <= BLOCK_BYTES else BLOCK_BYTES // 2
    step = max(1, budget // row_bytes)
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def panel_operand(x: np.ndarray) -> np.ndarray:
    """[x | 1 | |x|^2]: the n x (d + 2) column side of every panel of the
    distance matrix of `x`, built once per matrix.

    |x|^2 is np.einsum("ij,ij->i", x, x) of the float64 `x`. A panel reads
    its row side from the same array (see panel), so one operand serves
    every block.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    operand = np.empty((n, d + 2))
    operand[:, :d] = x
    operand[:, d] = 1.0
    np.einsum("ij,ij->i", x, x, out=operand[:, d + 1])
    return operand


def panel(
    operand: np.ndarray, start: int, stop: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows start:stop, columns start:n, of the Euclidean distance matrix
    whose panel_operand is `operand`: a row block from its diagonal on.

    One product of augmented operands, the row side [-2 x_I | |x_I|^2 | 1]
    built from the block's operand rows and the column side the operand
    itself, so the product already holds |x_i|^2 + |x_j|^2 - 2 x_i.x_j; what
    is left is the clamp at 0, the square root in place and the diagonal,
    set to exactly zero. The product runs on one BLAS thread, under its own
    pin. It rounds like the |a|^2 + |b|^2 - 2ab expansion of
    pairwise_sq_distances, but not to its bits: the norms are added inside
    the GEMM's sum. out, when given, is a C-contiguous float64 array of the
    result's shape; the panel is written into it and it is returned.
    """
    d = operand.shape[1] - 2
    rows = np.empty((stop - start, d + 2))
    # -2 x is exact unless it overflows, so it costs no rounding.
    np.multiply(operand[start:stop, :d], -2.0, out=rows[:, :d])
    rows[:, d] = operand[start:stop, d + 1]
    rows[:, d + 1] = 1.0
    with _single_blas_thread():
        d2 = np.matmul(rows, operand[start:].T, out=out)
    np.maximum(d2, 0.0, out=d2)
    np.sqrt(d2, out=d2)
    diagonal = np.arange(stop - start)
    d2[diagonal, diagonal] = 0.0
    return d2


def map_on_one_blas_thread(work: Callable, items: Sequence, threads: int) -> list:
    """[work(item) for item in items], with OpenBLAS pinned to one thread.

    With threads > 1 the items run on a pool of that many threads. The first
    exception work raises propagates; items not yet started are dropped, and
    the BLAS count is restored once the running ones finish.
    """
    with _single_blas_thread():
        if threads <= 1:
            return [work(item) for item in items]
        with ThreadPoolExecutor(threads) as pool:
            try:
                # What pool.map does, but every future lives to the end: with
                # pool.map's generator, an n = 8192 sweep's peak RSS measured
                # up to 1.3 MB higher, from where glibc placed its chunks.
                futures = [pool.submit(work, item) for item in items]
                return [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise


def for_each_row_block(
    n: int,
    work: Callable[[int, int], object],
    commit: Callable[[int, int, object], None] = lambda start, stop, result: None,
) -> None:
    """For every block of row_blocks(n), work(start, stop) and then
    commit(start, stop, result) with what work returned; on one BLAS thread,
    with the commits in block order.

    With several blocks they run on min(blocks, T) threads, T being the
    OpenBLAS thread count before the pin (1 inside another pin, such as a
    pooled sweep's, and when BLAS cannot be controlled), one whole block per
    thread. work may run concurrently with itself and with commits, so it
    must write only what belongs to its own block. commit runs on the same
    thread right after its block's work, once every earlier block has
    committed, and never concurrently with another commit: it may write
    anything, and the order of its writes, so their bits, depend on n alone,
    never on T. A thread holds its block's result until the commit, and
    takes no other block before, so at most T results are held at once.

    Errors propagate as in map_on_one_blas_thread. A block that raises, in
    work or in commit, releases the blocks waiting to commit, which return
    without committing, and no block starts its work after it.
    """
    blocks = row_blocks(n)
    threads = min(len(blocks), blas_thread_count() or 1)
    turn = threading.Condition()
    committed = 0
    failed = False

    def run(index):
        nonlocal committed, failed
        start, stop = blocks[index]
        if failed:
            return
        try:
            result = work(start, stop)
            with turn:
                turn.wait_for(lambda: committed == index or failed)
                if not failed:
                    commit(start, stop, result)
                    committed += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    map_on_one_blas_thread(run, range(len(blocks)), threads)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Full n x n Euclidean distance matrix with an exactly zero diagonal.

    Only a matrix that row_blocks makes one block is built, as the single
    product pairwise_sq_distances(x, x); a larger one raises ValueError
    before anything is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if len(row_blocks(n)) > 1:
        raise ValueError(
            f"a {n} x {n} distance matrix is more than one row block; "
            "read it a panel at a time with panel"
        )
    d = pairwise_sq_distances(x, x)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def check_distances(distances: np.ndarray, n: int) -> np.ndarray:
    """`distances` as a float64 array; ValueError unless its shape is (n, n).

    Callers that accept a precomputed matrix take it to be pairwise_distances
    of their float64 points and only read it.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if distances.shape != (n, n):
        raise ValueError(f"distances must have shape {(n, n)}, got {distances.shape}")
    return distances
