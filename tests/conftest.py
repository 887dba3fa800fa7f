"""Fixtures shared by the test modules: OpenBLAS thread-count control, a
probe of the distance kernel's pin and the distance tile shape."""

import contextlib
import sys
import types

import pytest

from cluster_sense import distance


@pytest.fixture(autouse=True)
def blas_state_is_restored():
    """Fail any test that leaves OpenBLAS's thread count, or the depth of the
    one-thread pin, other than it found them."""
    before = (distance.blas_thread_count(), distance._blas_pin_depth)
    yield
    after = (distance.blas_thread_count(), distance._blas_pin_depth)
    if after != before:
        pytest.fail(f"BLAS (thread count, pin depth) left at {after}, found at {before}")


@pytest.fixture
def blas_threads():
    """OpenBLAS set to two threads for the test and back afterwards.

    A known count other than 1 shows whether a sweep restored it. Yields None,
    changing nothing, when the BLAS cannot be controlled.
    """
    controls = distance._openblas_thread_controls()
    if controls is None:
        yield None
        return
    get, set_ = controls
    original = get()
    set_(2)
    try:
        yield 2
    finally:
        set_(original)


@pytest.fixture
def controlled_blas(blas_threads):
    if blas_threads is None:
        pytest.skip("no OpenBLAS thread-count control symbol in this process")
    return blas_threads


@pytest.fixture
def kernel_pins(monkeypatch):
    """Probe of the pin the distance kernels, pairwise_sq_distances and
    tile, hold around their products.

    `.products` gets, for each product, from any thread: (name of the module
    that called the kernel, BLAS thread count inside the pin, pin depth
    inside the pin). `.hook`, when set, is called inside the pin with that
    module name and may raise. Pins entered anywhere else pass through
    unrecorded.
    """
    probe = types.SimpleNamespace(products=[], hook=None)
    original = distance._single_blas_thread
    kernels = {distance.pairwise_sq_distances.__code__, distance.tile.__code__}

    @contextlib.contextmanager
    def kernel_pin(caller):
        with original() as pinned:
            probe.products.append((caller, distance.blas_thread_count(), distance._blas_pin_depth))
            if probe.hook is not None:
                probe.hook(caller)
            yield pinned

    def pin():
        frame = sys._getframe(1)
        if frame.f_code not in kernels:
            return original()
        return kernel_pin(frame.f_back.f_globals["__name__"])

    monkeypatch.setattr(distance, "_single_blas_thread", pin)
    return probe


@pytest.fixture
def tile_shape(monkeypatch):
    """set(n, rows, columns=n): patch distance's budgets for the test so
    that an n x n matrix is one block when rows >= n, and otherwise is read
    in strips of `rows` rows, the last possibly shorter, each from its
    diagonal on in tiles of `columns` columns, the last possibly narrower.

    With the default `columns` each strip is one tile, from its diagonal to
    the last column. Matrices of fewer points than n fit one block.
    """

    def set_shape(n, rows, columns=None):
        one_block = 8 * n * n
        monkeypatch.setattr(distance, "BLOCK_BYTES", one_block if rows >= n else one_block - 1)
        monkeypatch.setattr(distance, "TILE_ROWS", rows)
        monkeypatch.setattr(distance, "TILE_COLUMNS", columns or n)
        strips = [(r.start, r.stop) for r, c in distance.tiles(n) if c.start == r.start]
        step = min(rows, n)
        assert strips == [(start, min(start + step, n)) for start in range(0, n, step)]

    return set_shape
