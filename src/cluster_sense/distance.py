"""Shared Euclidean distance kernels and the BLAS threading they run under.

Both the clusterer and the geometry metrics go through these helpers so that
a metric computed inside a sweep is bit-identical to one computed by calling
the metric function directly on the same matrix.

Only a distance matrix that fits BLOCK_BYTES (fits_one_block; n <= 1024) is
ever held whole: pairwise_distances builds it in a single product of
pairwise_sq_distances' |a|^2 + |b|^2 - 2ab expansion, and the sweep shares
it between k-means++ and silhouette. Its one other reader, silhouette, reads
a larger matrix in tiles (tiles): strips of TILE_ROWS rows, each from its
diagonal on in tiles of TILE_COLUMNS columns, 1 MiB each, so each pair is
computed once and the memory a thread holds for distances is one tile
whatever n is. A tile is one product of augmented operands: the column side
[x | 1 | |x|^2] (tile_operand, n x (d + 2), built once per matrix) and the
strip's row side [-2 x_I | |x_I|^2 | 1], so the GEMM adds the norms inside
its sum and no elementwise pass but the clamp, the square root and the
diagonal follows. It rounds like the expansion, with the same cancellation
of the norms, but not to its bits; its distances hold n * (d + 2) more
floats than the tiles themselves. A tile matches the slice of the same
product over the whole matrix bit for bit only where the BLAS GEMM rounds
every element the same way whatever the operand shape (with OpenBLAS 0.3.31
on an AVX-512 x86-64 CPU: tile starts and sizes multiples of 8 and no
one-row tile, which numpy computes with GEMV). So a given n always splits
into the same tiles, and results stay reproducible.

Every BLAS product in the package runs on one BLAS thread, under a pin
this module holds. pairwise_sq_distances and tile pin their own products,
so k-means++'s center distances, Lloyd's assignment steps, the distance
matrix, silhouette's tiles and Davies-Bouldin's centroid distances run
pinned wherever they are called from; for_each_tile holds the pin around
the work and the commits it runs, which covers silhouette's per-cluster
products. OpenBLAS rounds a product differently at different thread
counts, so a product computed on several BLAS threads by a serial sweep
would not have the bits of the same product computed by a pooled sweep,
which runs on one; with every product pinned the two agree by
construction, not by how one BLAS build happens to round. Pinned products
also never wake OpenBLAS's own threads, which would keep spinning for a
while after each product and take CPU from the threads that do the work.
Cores are kept busy by the sweep's worker pool and by for_each_tile, which
spreads the tiles of a matrix past one block over as many threads as BLAS
had; both run on the calling thread plus helpers, so the caller works
rather than waits. There a tile's work writes only its own tile, while
other tiles run; what it adds to rows of other strips it hands to its
commit, which runs once every earlier tile has committed, one commit at a
time. Neither the partition nor the commit order depends on the thread
count, so neither do the bits. A serial sweep of matrices that fit one
block runs on one core.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

# Byte budget of a distance matrix computed as one block: one n = 1024
# matrix.
BLOCK_BYTES = 8 * 1024 * 1024
# A larger matrix is read in tiles of TILE_ROWS x TILE_COLUMNS float64
# (1 MiB), one buffer of that size per thread.
TILE_ROWS = 128
TILE_COLUMNS = 1024
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

    Entered around every BLAS product (see the module docstring), around
    for_each_tile's tiles and around _drain's helper threads, which already
    use every core; letting each of them also start BLAS threads
    oversubscribes the CPUs. Nested or overlapping uses share one pin, and
    the count seen on first entry comes back on last exit. Yields the
    thread count the body runs with, or None (and changes nothing) when the
    BLAS cannot be controlled.
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
    a: np.ndarray, b: np.ndarray, a_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances between rows of `a` and rows of `b`.

    Uses the |a|^2 + |b|^2 - 2ab expansion (BLAS-backed); tiny negative
    values from cancellation are clipped to zero.

    a_sq, when given, must be the squared row norms of `a` as computed by
    np.einsum("ij,ij->i", a, a) on the same float64 array (or on an array of
    which it is a row slice: a row's norm does not depend on the rows around
    it). A caller that measures many `b` against one `a` (a k-means fit)
    computes them once instead of once per call. The result is
    bit-identical either way.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a_sq is None:
        a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    # In place; (-2ab) + (|a|^2 + |b|^2) rounds exactly like
    # (|a|^2 + |b|^2) - 2ab. The norm sums are added a few rows at a time, so
    # the only result-sized buffer is the result itself. The product runs on
    # one BLAS thread, as every product does (see the module docstring).
    with _single_blas_thread():
        d2 = a @ b.T
    d2 *= -2.0
    step = max(1, _SUM_CHUNK_BYTES // (8 * max(b_sq.size, 1)))
    for start in range(0, d2.shape[0], step):
        d2[start : start + step] += a_sq[start : start + step, None] + b_sq[None, :]
    np.maximum(d2, 0.0, out=d2)
    return d2


def fits_one_block(n: int) -> bool:
    """Whether the n x n float64 distance matrix fits BLOCK_BYTES, so is
    built whole (pairwise_distances) rather than read in tiles."""
    return 8 * n * n <= BLOCK_BYTES


def tiles(n: int) -> Iterator[tuple[slice, slice]]:
    """(rows, columns) of the tiles that cover the n x n distance matrix's
    upper triangle, in tile order.

    A matrix that fits one block is one tile, the whole matrix. A larger one
    is read in strips of TILE_ROWS rows (the last possibly shorter), each
    from its first row's diagonal on in tiles of TILE_COLUMNS columns (the
    last possibly narrower): strip by strip, left to right. A strip's first
    tile holds its whole square on the diagonal, both triangles of it. The
    partition depends on n alone.
    """
    whole = max(n, 1)
    rows, columns = (whole, whole) if fits_one_block(n) else (TILE_ROWS, TILE_COLUMNS)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        for first in range(start, n, columns):
            yield slice(start, stop), slice(first, min(first + columns, n))


def tile_operand(x: np.ndarray) -> np.ndarray:
    """[x | 1 | |x|^2]: the n x (d + 2) column side of every tile of the
    distance matrix of `x`, built once per matrix.

    |x|^2 is np.einsum("ij,ij->i", x, x) of the float64 `x`. A tile reads
    its row side from the same array (see tile), so one operand serves
    every tile.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    operand = np.empty((n, d + 2))
    operand[:, :d] = x
    operand[:, d] = 1.0
    np.einsum("ij,ij->i", x, x, out=operand[:, d + 1])
    return operand


def tile(
    operand: np.ndarray, rows: slice, columns: slice, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows `rows` and columns `columns` (slices with a start and a stop) of
    the Euclidean distance matrix whose tile_operand is `operand`.

    One product of augmented operands, the row side [-2 x_I | |x_I|^2 | 1]
    built from the rows' operand rows and the column side the columns'
    operand rows, so the product already holds |x_i|^2 + |x_j|^2 - 2 x_i.x_j;
    what is left is the clamp at 0, the square root in place and the
    diagonal entries the tile holds, set to exactly zero. The product runs
    on one BLAS thread, under its own pin. It rounds like the
    |a|^2 + |b|^2 - 2ab expansion of pairwise_sq_distances, but not to its
    bits: the norms are added inside the GEMM's sum. out, when given, is a
    C-contiguous float64 array of the result's shape; the tile is written
    into it and it is returned.
    """
    d = operand.shape[1] - 2
    side = np.empty((rows.stop - rows.start, d + 2))
    # -2 x is exact unless it overflows, so it costs no rounding. Whole rows,
    # contiguous in and out, need no ufunc buffers; the last two columns are
    # then overwritten.
    np.multiply(operand[rows], -2.0, out=side)
    side[:, d] = operand[rows, d + 1]
    side[:, d + 1] = 1.0
    with _single_blas_thread():
        d2 = np.matmul(side, operand[columns].T, out=out)
    np.maximum(d2, 0.0, out=d2)
    np.sqrt(d2, out=d2)
    diagonal = np.arange(max(rows.start, columns.start), min(rows.stop, columns.stop))
    d2[diagonal - rows.start, diagonal - columns.start] = 0.0
    return d2


def _drain(run: Callable, items: Iterator, threads: int) -> None:
    """run(item) for every item `items` yields, on the calling thread plus
    threads - 1 helpers.

    With one thread this is a plain loop on the caller, and OpenBLAS keeps
    whatever count the caller left it. With more, OpenBLAS is pinned to one
    thread while they run, since the threads already use the cores. Each
    participant takes the next item as soon as it is free, so items start
    in order. The first exception run raises propagates once every
    participant has stopped: no item starts after it, and the ones running
    finish first, so the pin is undone with nothing left running.
    """
    if threads <= 1:
        for item in items:
            run(item)
        return
    lock = threading.Lock()
    errors: list[BaseException] = []
    done = object()

    def participate():
        while True:
            try:
                with lock:
                    item = done if errors else next(items, done)
                if item is done:
                    return
                run(item)
            except BaseException as error:
                with lock:
                    errors.append(error)
                return

    with _single_blas_thread(), ThreadPoolExecutor(threads - 1) as helpers:
        for _ in range(threads - 1):
            helpers.submit(participate)
        participate()
    if errors:
        raise errors[0]


def map_on_one_blas_thread(work: Callable, items: Sequence, threads: int) -> list:
    """[work(item) for item in items], on the calling thread plus
    threads - 1 helpers.

    With one thread the items run in order on the caller, and work sees
    OpenBLAS's own count; with more, OpenBLAS is pinned to one thread while
    they run (see _drain). The first exception work raises propagates;
    items not yet started are dropped, and the BLAS count is restored once
    the running ones finish.
    """
    results = [None] * len(items)

    def store(indexed):
        index, item = indexed
        results[index] = work(item)

    _drain(store, enumerate(items), threads)
    return results


def for_each_tile(
    n: int,
    work: Callable[[slice, slice, Optional[np.ndarray]], object],
    commit: Callable[[slice, slice, object], None] = lambda rows, columns, result: None,
) -> None:
    """For every tile of tiles(n), work(rows, columns, out) and then
    commit(rows, columns, result) with what work returned, with the commits
    in tile order. OpenBLAS is pinned to one thread around them all, whatever
    the thread count, so the products work and commit compute run pinned.

    A matrix that fits one block is one tile, run on the calling thread,
    with out None. A larger one runs on the calling thread plus T - 1
    helpers, T being the OpenBLAS thread count read before the pin (1 inside
    another pin, such as a pooled sweep's, and when BLAS cannot be
    controlled); out is then a C-contiguous float64 array of the tile's
    shape, a view of one TILE_ROWS * TILE_COLUMNS buffer that its thread
    reuses for every tile it takes. work may run concurrently with itself
    and with commits, so it must write only what belongs to its own tile.
    commit runs on the same thread right after its tile's work, once every
    earlier tile has committed, and never concurrently with another commit:
    it may write anything, and the order of its writes, so their bits,
    depend on n alone, never on T. A thread holds its tile, and its buffer,
    until the commit and takes no other tile before, so at most T tiles are
    held at once.

    Errors propagate as in map_on_one_blas_thread. A tile that raises, in
    work or in commit, releases the tiles waiting to commit, which return
    without committing, and no tile starts its work after it.
    """
    tiled = not fits_one_block(n)
    threads = (blas_thread_count() or 1) if tiled else 1
    buffers = threading.local()
    turn = threading.Condition()
    committed = 0
    failed = False

    def run(indexed):
        nonlocal committed, failed
        index, (rows, columns) = indexed
        if failed:
            return
        out = None
        if tiled:
            if not hasattr(buffers, "tile"):
                buffers.tile = np.empty(TILE_ROWS * TILE_COLUMNS)
            shape = (rows.stop - rows.start, columns.stop - columns.start)
            out = buffers.tile[: shape[0] * shape[1]].reshape(shape)
        try:
            result = work(rows, columns, out)
            with turn:
                turn.wait_for(lambda: committed == index or failed)
                if not failed:
                    commit(rows, columns, result)
                    committed += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    with _single_blas_thread():
        _drain(run, enumerate(tiles(n)), threads)


def pairwise_distances(x: np.ndarray) -> np.ndarray:
    """Full n x n Euclidean distance matrix with an exactly zero diagonal.

    Only a matrix that fits one block is built, as the single product
    pairwise_sq_distances(x, x); a larger one raises ValueError before
    anything is allocated.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not fits_one_block(n):
        raise ValueError(
            f"a {n} x {n} distance matrix is more than one block; "
            "read it a tile at a time with tile"
        )
    d = pairwise_sq_distances(x, x)
    np.sqrt(d, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def check_distances(distances: np.ndarray, n: int) -> np.ndarray:
    """`distances` as a float64 array; ValueError, before anything is
    converted, unless the n x n matrix fits one block and has that shape.

    Callers that accept a precomputed matrix take it to be pairwise_distances
    of their float64 points, the only matrix it builds, and only read it.
    Past one block the remedy is to pass none: each caller then works from
    the points.
    """
    if not fits_one_block(n):
        raise ValueError(
            f"a {n} x {n} distance matrix is more than one block; "
            "pass no distances, and the points are read instead"
        )
    if np.shape(distances) != (n, n):
        raise ValueError(f"distances must have shape {(n, n)}, got {np.shape(distances)}")
    return np.asarray(distances, dtype=np.float64)
