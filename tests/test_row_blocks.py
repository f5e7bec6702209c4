"""The row-block pool (``raster_core.map_row_blocks``) and the kernels that use it.

A pool thread starts from numpy's default error state, not the caller's,
so a kernel that relied on its caller's ``np.errstate`` would warn, or
skip its overflow fallback, only when a worker thread ran the block.
These tests compare every kernel bit for bit across worker counts, on
inputs that put NaN, infinities, nodata and float32 overflows into
blocks that pool threads compute.
"""

import itertools
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from palmwatch import raster_core
from palmwatch.errors import ParameterError
from palmwatch.indices import normalized_difference
from palmwatch.pixel_model import ModelParams, predict_map
from palmwatch.raster_core import BLOCK_PX, Band, Mask, Raster, map_row_blocks

NODATA = -9999.0
# sums and differences of these leave the float32 range
HUGE = (3e38, -3e38, 3.4e38, 2e38, -2e38, 1e38)
SPECIAL = (np.nan, np.inf, -np.inf, NODATA, 0.0, -0.0) + HUGE


def blocks_seen(n_rows, width, workers, block_px):
    """(block, worker) pairs in call order; a worker is named by its scratch."""
    seen = []
    lock = threading.Lock()

    def fn(rows, worker):
        with lock:
            seen.append(((rows.start, rows.stop), worker))

    worker_ids = itertools.count()
    with mock.patch.object(raster_core, "BLOCK_PX", block_px):
        map_row_blocks(n_rows, width, fn, workers, scratch=lambda rows: next(worker_ids))
    return seen


class TestMapRowBlocks:
    @pytest.mark.parametrize(
        "n_rows, width, block_px, workers",
        [(10, 3, 7, 2), (10, 3, 7, 3), (1, 5, 2, 3), (7, 1, 1, 2), (5, 9, 100, 4), (9, 4, 8, 1)],
    )
    def test_blocks_are_dealt_round_robin(self, n_rows, width, block_px, workers):
        rows = max(1, block_px // width)
        expected = [(top, min(top + rows, n_rows)) for top in range(0, n_rows, rows)]
        k = min(workers, len(expected))
        seen = blocks_seen(n_rows, width, workers, block_px)
        assert sorted(block for block, _ in seen) == expected
        assert {block: worker for block, worker in seen} == {
            block: i % k for i, block in enumerate(expected)
        }

    def test_no_rows_calls_nothing(self):
        scratch = mock.Mock()
        map_row_blocks(0, 5, mock.Mock(side_effect=AssertionError), 2, scratch=scratch)
        scratch.assert_not_called()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(ParameterError, match="workers"):
            map_row_blocks(4, 4, lambda rows, _: None, workers)

    def test_none_is_every_usable_cpu(self):
        with mock.patch.object(raster_core, "ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool:
            map_row_blocks(1000, BLOCK_PX, lambda rows, _: None)
        usable = raster_core.usable_cpus()
        if usable == 1:
            pool.assert_not_called()
        else:
            pool.assert_called_once_with(max_workers=usable)

    def test_scratch_is_made_in_the_calling_thread(self):
        made_in = []
        map_row_blocks(
            4, BLOCK_PX, lambda rows, _: None, 2,
            scratch=lambda rows: made_in.append(threading.get_ident()),
        )
        assert made_in == [threading.get_ident()] * 2

    @pytest.mark.parametrize("block_rows", [1, 3, 10, 11])
    def test_block_rows_is_the_block_height(self, block_rows):
        seen = []
        map_row_blocks(10, BLOCK_PX, lambda rows, _: seen.append((rows.start, rows.stop)), 1, block_rows=block_rows)
        assert seen == [(top, min(top + block_rows, 10)) for top in range(0, 10, block_rows)]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_the_first_failing_block_is_raised(self, workers):
        # at two workers block 4 is worker 0's and block 3 worker 1's
        def fn(rows, _):
            if rows.start in (3, 4):
                raise ValueError(f"block {rows.start}")

        with pytest.raises(ValueError, match="block 3"):
            map_row_blocks(8, BLOCK_PX, fn, workers)

    def test_a_failing_block_raises_and_leaves_no_thread(self):
        before = threading.active_count()

        def fn(rows, _):
            if rows.start == 3:
                raise ValueError("block 3")

        with pytest.raises(ValueError, match="block 3"):
            map_row_blocks(8, BLOCK_PX, fn, 3)
        assert threading.active_count() == before


def operands(height, width, seed):
    """float32 samples of which about 3 in 10 are NaN, infinite, nodata, signed zeros or huge."""
    rng = np.random.default_rng(seed)
    pick = rng.random((height, width))
    values = rng.random((height, width), dtype=np.float32)
    specials = np.array(SPECIAL, np.float32)[rng.integers(0, len(SPECIAL), (height, width))]
    return np.where(pick < 0.3, specials, values).astype(np.float32)


@st.composite
def difference_inputs(draw):
    """Operands a, b and mask ok, 1-D or 2-D, with NaN, infinities, nodata
    and huge values; ok holds only where both operands are finite and not
    nodata. The last pixel, in the last block, holds a pair whose sum
    leaves float32."""
    height, width = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    a, b = operands(height, width, seed), operands(height, width, seed + 1)
    a[-1, -1], b[-1, -1] = 3e38, 2e38
    ok = np.isfinite(a) & np.isfinite(b) & (a != NODATA) & (b != NODATA)
    ok &= np.random.default_rng(seed + 2).random((height, width)) < 0.9
    ok[-1, -1] = True
    if draw(st.booleans()):
        a, b, ok = a.ravel(), b.ravel(), ok.ravel()
    return a, b, ok


def identical(x, y):
    np.testing.assert_array_equal(np.asarray(x).view(np.uint8), np.asarray(y).view(np.uint8))


class TestSameBitsForAnyWorkers:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(inputs=difference_inputs(), block_px=st.integers(1, 200))
    def test_normalized_difference(self, inputs, block_px):
        a, b, ok = inputs
        # one block: the whole-plane arithmetic
        reference = normalized_difference(a, b, ok, workers=1)
        with mock.patch.object(raster_core, "BLOCK_PX", block_px), warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2, 3):
                identical(normalized_difference(a, b, ok, workers=workers), reference)
        # the overflowing pair went through the halving fallback
        assert reference.flat[-1] == pytest.approx(0.2, rel=1e-6)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        height=st.integers(1, 12), width=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
        block_px=st.integers(1, 200),
    )
    def test_predict_map(self, height, width, seed, block_px):
        rng = np.random.default_rng(seed)
        bands = tuple(
            Band(name, operands(height, width, seed + i)) for i, name in enumerate(("red", "green", "nir"))
        )
        raster = Raster(bands=bands, nodata_value=NODATA)
        features = ("red", "green", "nir", "ndvi", "gndvi")
        # mixed signs turn infinite terms into inf - inf, and the tiny std
        # overflows float64 at the huge samples
        params = ModelParams(
            features, rng.uniform(-10, 10, 5), 0.3, rng.uniform(-1, 1, 5),
            np.where(rng.random(5) < 0.3, 1e-300, rng.uniform(0.05, 10, 5)),
        )
        mask = Mask(raster.valid_mask().bits & (rng.random((height, width)) < 0.9))
        reference = predict_map(raster, mask, params, workers=1)
        with mock.patch.object(raster_core, "BLOCK_PX", block_px), warnings.catch_warnings():
            warnings.simplefilter("error")
            for workers in (1, 2, 3):
                prob = predict_map(raster, mask, params, workers=workers)
                identical(prob.valid, reference.valid)
                identical(prob.values, reference.values)


class TestPoolMemoryAndThreads:
    """At two workers, memory beyond the outputs is a few block buffers per
    worker, not a plane, and every thread the pool started has ended."""

    SHAPE = (512, 4096)  # 32 blocks of 16 rows
    WORKERS = 2

    def beyond_outputs(self, run):
        before = threading.active_count()
        tracemalloc.start()
        try:
            outputs = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert threading.active_count() == before
        block = BLOCK_PX * 8  # one float64 block buffer
        return (peak - sum(out.nbytes for out in outputs)) / block

    def test_normalized_difference(self):
        rng = np.random.default_rng(7)
        a, b = rng.random(self.SHAPE, dtype=np.float32), rng.random(self.SHAPE, dtype=np.float32)
        ok = np.ones(self.SHAPE, bool)
        # a float32 plane is 16 block buffers here
        assert self.beyond_outputs(lambda: [normalized_difference(a, b, ok, workers=self.WORKERS)]) <= 4 * self.WORKERS

    def test_predict_map(self):
        rng = np.random.default_rng(8)
        raster = Raster(bands=tuple(Band(n, rng.random(self.SHAPE, dtype=np.float32)) for n in ("red", "nir")))
        mask = raster.valid_mask()
        params = ModelParams(("red", "nir"), np.ones(2), 0.1, np.zeros(2), np.ones(2))

        def run():
            prob = predict_map(raster, mask, params, workers=self.WORKERS)
            return prob.values, prob.valid

        assert self.beyond_outputs(run) <= 4 * self.WORKERS
