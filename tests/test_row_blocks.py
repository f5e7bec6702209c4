"""The row-block pool (``raster_core.map_row_blocks``) and the kernels that use it.

A pool thread starts from numpy's default error state, not the caller's,
so a kernel that relied on its caller's ``np.errstate`` would warn, or
skip its overflow fallback, only when a worker thread ran the block.
These tests compare every kernel bit for bit across worker counts, on
inputs that put NaN, infinities, nodata and float32 overflows into
blocks that pool threads compute.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import palmwatch
from palmwatch import raster_core
from palmwatch.errors import ParameterError
from palmwatch.indices import normalized_difference
from palmwatch.pixel_model import ModelParams, predict_map
from palmwatch.raster_core import BLOCK_PX, Band, Mask, Raster, map_row_blocks

SRC = Path(palmwatch.__file__).resolve().parent.parent
NODATA = -9999.0
# sums and differences of these leave the float32 range
HUGE = (3e38, -3e38, 3.4e38, 2e38, -2e38, 1e38)
SPECIAL = (np.nan, np.inf, -np.inf, NODATA, 0.0, -0.0) + HUGE


def start_every_pool_thread(workers):
    """Grow the pool to at least ``workers`` threads and start every one:
    the pool starts its threads as work arrives, so one call whose blocks
    wait for each other, one per pool thread, makes it start them all.
    Later calls at up to that many workers then start no thread."""
    size = max(workers, raster_core._pool_size)
    everyone = threading.Barrier(size, timeout=30)
    map_row_blocks(size, BLOCK_PX, lambda rows, _: everyone.wait(), size)


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
        usable = raster_core.usable_cpus()
        # each worker's first block waits for every worker's, so the
        # workers run at once, on as many distinct threads
        everyone = threading.Barrier(usable, timeout=30)
        threads = set()
        lock = threading.Lock()

        def fn(rows, _):
            if rows.start < usable:
                everyone.wait()
            with lock:
                threads.add(threading.get_ident())

        map_row_blocks(1000, BLOCK_PX, fn)
        assert len(threads) == usable
        # more than one worker runs on pool threads alone
        assert (threading.get_ident() in threads) == (usable == 1)

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
        start_every_pool_thread(3)
        before = threading.active_count()
        out = np.zeros(8)

        def fill(rows, _):
            out[rows] = np.arange(rows.start, rows.stop)

        def fn(rows, _):
            if rows.start == 3:
                raise ValueError("block 3")

        for _ in range(5):
            map_row_blocks(8, BLOCK_PX, fill, 3)
            with pytest.raises(ValueError, match="block 3"):
                map_row_blocks(8, BLOCK_PX, fn, 3)
            assert threading.active_count() == before
        out[:] = -1
        map_row_blocks(8, BLOCK_PX, fill, 3)
        np.testing.assert_array_equal(out, np.arange(8))


class TestOnePool:
    """The pool outlives a call: calls share it, nest in it and fork with it."""

    def test_a_nested_call_runs_in_its_block_and_gives_the_same_bytes(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((64, 300), dtype=np.float32), rng.random((64, 300), dtype=np.float32)
        ok = np.ones(a.shape, bool)
        reference = normalized_difference(a, b, ok, workers=1)
        out = np.empty((4,) + a.shape, np.float32)
        inner_threads = [set() for _ in out]

        def fn(rows, _):
            i = rows.start
            map_row_blocks(8, BLOCK_PX, lambda _rows, _: inner_threads[i].add(threading.get_ident()), 2)
            # the nested call ran in this block's own thread
            assert inner_threads[i] == {threading.get_ident()}
            out[i] = normalized_difference(a, b, ok, workers=2)

        failed = []

        def outer():
            try:
                with mock.patch.object(raster_core, "BLOCK_PX", 1000):
                    map_row_blocks(4, 1, fn, 2, block_rows=1)
            except BaseException as exc:
                failed.append(exc)

        # nested calls that waited on the pool their blocks occupy would hang
        caller = threading.Thread(target=outer)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert failed == []
        for plane in out:
            identical(plane, reference)

    def test_two_callers_share_the_pool(self):
        rng = np.random.default_rng(4)
        planes = [rng.random((256, 512), dtype=np.float32) for _ in range(4)]
        ok = np.ones(planes[0].shape, bool)
        expected = [normalized_difference(planes[i], planes[i + 1], ok, workers=1) for i in (0, 2)]
        results = [[], []]

        def caller(j):
            for _ in range(20):
                results[j].append(normalized_difference(planes[2 * j], planes[2 * j + 1], ok, workers=2))

        callers = [threading.Thread(target=caller, args=(j,)) for j in range(2)]
        with mock.patch.object(raster_core, "BLOCK_PX", 4096):
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in callers)
        for j in range(2):
            assert len(results[j]) == 20
            for ratio in results[j]:
                identical(ratio, expected[j])

    def test_callers_that_grow_the_pool_at_once_lose_no_block(self):
        # up to 8 workers, more than CPUs or any other test asks for, by
        # four callers at once, so the pool is replaced while others submit
        failed, done = [], []

        def caller(j):
            try:
                for i in range(10):
                    workers = 3 + (4 * i + j) % 6
                    out = np.zeros(64, np.int64)

                    def fn(rows, _):
                        out[rows] += np.arange(rows.start, rows.stop)

                    map_row_blocks(64, BLOCK_PX, fn, workers)
                    if not np.array_equal(out, np.arange(64)):
                        failed.append((j, i))
                done.append(j)
            except BaseException as exc:
                failed.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(j,)) for j in range(4)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert failed == []
        assert sorted(done) == [0, 1, 2, 3]

    def test_a_failure_waits_for_every_other_block(self):
        release = threading.Event()
        ended = []

        def fn(rows, _):
            if rows.start == 0:
                raise ValueError("block 0")
            # worker 1's block is still running when block 0 has failed
            assert release.wait(timeout=30)
            ended.append(rows.start)

        timer = threading.Timer(0.3, release.set)
        timer.start()
        try:
            with pytest.raises(ValueError, match="block 0"):
                map_row_blocks(2, BLOCK_PX, fn, 2)
            assert ended == [1]
        finally:
            timer.cancel()
            timer.join(timeout=30)

    def test_a_forked_child_uses_a_pool_of_its_own(self):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        start_every_pool_thread(2)
        rng = np.random.default_rng(5)
        a, b = rng.random((64, 4096), dtype=np.float32), rng.random((64, 4096), dtype=np.float32)
        ok = np.ones(a.shape, bool)
        reference = normalized_difference(a, b, ok, workers=1)
        pid = os.fork()
        if pid == 0:  # the child reports by its exit code alone
            code = 1
            try:
                same = np.array_equal(normalized_difference(a, b, ok, workers=2).view(np.uint32), reference.view(np.uint32))
                code = 0 if same else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if status[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_idle_pool_threads_do_not_hang_exit(self, tmp_path):
        # eight row bands of noise, so every CPU takes some
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"width": 512, "height": 1024, "counts": {"healthy": 3}, "seed": 2}))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "palmwatch.cli", "synth", str(tmp_path / "out"), "--spec", str(spec)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out" / "scene.rhdr").is_file()


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

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        height=st.integers(1, 12), width=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
        block_px=st.integers(1, 200), nodata=st.sampled_from([None, NODATA, np.nan]),
    )
    def test_valid_mask(self, height, width, seed, block_px, nodata):
        bands = tuple(Band(name, operands(height, width, seed + i)) for i, name in enumerate(("red", "nir")))
        raster = Raster(bands=bands, nodata_value=nodata)
        # one block: the rule on the whole plane
        reference = raster.valid_rows(slice(None))
        with mock.patch.object(raster_core, "BLOCK_PX", block_px):
            for workers in (1, 2, 3):
                identical(raster.valid_mask(workers=workers).bits, reference)


class TestPoolMemoryAndThreads:
    """At two workers, memory beyond the outputs is a few block buffers per
    worker, not a plane, and a pool whose threads have all started starts
    no more."""

    SHAPE = (512, 4096)  # 32 blocks of 16 rows
    WORKERS = 2

    def beyond_outputs(self, run):
        start_every_pool_thread(self.WORKERS)
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
