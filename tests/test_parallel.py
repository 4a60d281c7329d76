"""Scheduler, partitioner, and thread-pool tests."""

import time

import numpy as np
import pytest

from repro.parallel import (
    DynamicSchedule,
    GuidedSchedule,
    StaticSchedule,
    balanced_chunks,
    block_of_row,
    effective_threads,
    get_executor,
    row_blocks,
    run_schedule,
)
from repro.parallel.threadpool import usable_cores


def parallel_for(func, items, threads=None):
    return get_executor("thread").parallel_for(func, items, threads=threads)


class TestRowBlocks:
    def test_exact_division(self):
        blocks = row_blocks(100, 25)
        assert len(blocks) == 4
        assert blocks[0] == slice(0, 25)
        assert blocks[-1] == slice(75, 100)

    def test_ragged_final_block(self):
        blocks = row_blocks(10, 4)
        assert [b.stop - b.start for b in blocks] == [4, 4, 2]

    def test_degenerate_single_block(self):
        assert row_blocks(10, 0) == [slice(0, 10)]
        assert row_blocks(10, 100) == [slice(0, 10)]

    def test_empty(self):
        assert row_blocks(0, 5) == []

    def test_covers_all_rows_exactly_once(self):
        blocks = row_blocks(97, 7)
        covered = np.concatenate([np.arange(b.start, b.stop) for b in blocks])
        np.testing.assert_array_equal(covered, np.arange(97))

    def test_block_of_row(self):
        assert block_of_row(0, 50) == 0
        assert block_of_row(49, 50) == 0
        assert block_of_row(50, 50) == 1


class TestBalancedChunks:
    def test_uniform_weights(self):
        chunks = balanced_chunks(np.ones(100), 4)
        sizes = [c.stop - c.start for c in chunks]
        assert sum(sizes) == 100
        assert max(sizes) - min(sizes) <= 1

    def test_skewed_weights(self):
        weights = np.zeros(100)
        weights[0] = 100.0
        weights[1:] = 1.0
        chunks = balanced_chunks(weights, 4)
        # The heavy element is isolated into a small first chunk.
        assert chunks[0].stop - chunks[0].start <= 2

    def test_single_chunk(self):
        assert balanced_chunks(np.ones(5), 1) == [slice(0, 5)]

    def test_zero_weights_fall_back(self):
        chunks = balanced_chunks(np.zeros(10), 3)
        assert sum(c.stop - c.start for c in chunks) == 10


class TestSchedules:
    def test_static_chunks_cover(self):
        chunks = StaticSchedule().chunks(10, 3)
        assert chunks[0] == (0, 4)
        assert sum(b - a for a, b in chunks) == 10

    def test_dynamic_chunks(self):
        chunks = DynamicSchedule(chunk_size=3).chunks(10, 2)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_guided_chunks_shrink(self):
        chunks = GuidedSchedule().chunks(1000, 4)
        sizes = [b - a for a, b in chunks]
        assert sizes[0] > sizes[-1]
        assert sum(sizes) == 1000

    def test_run_schedule_single_thread_is_sum(self):
        durations = np.array([1.0, 2.0, 3.0])
        for sched in (StaticSchedule(), DynamicSchedule(), GuidedSchedule()):
            out = run_schedule(durations, 1, sched)
            assert out.makespan == pytest.approx(6.0)

    def test_dynamic_beats_static_on_skew(self):
        durations = np.r_[np.full(1, 100.0), np.ones(99)]
        static = run_schedule(durations, 4, StaticSchedule(chunk_size=25))
        dynamic = run_schedule(durations, 4, DynamicSchedule(chunk_size=1))
        assert dynamic.makespan <= static.makespan

    def test_makespan_bounds(self):
        """Makespan must lie between ideal and serial."""
        gen = np.random.default_rng(3)
        durations = gen.uniform(0.1, 2.0, size=200)
        for threads in (2, 4, 8):
            out = run_schedule(durations, threads, DynamicSchedule())
            assert durations.sum() / threads <= out.makespan + 1e-9
            assert out.makespan <= durations.sum() + 1e-9

    def test_per_chunk_overhead_counted(self):
        durations = np.ones(10)
        base = run_schedule(durations, 2, DynamicSchedule(chunk_size=1))
        cost = run_schedule(durations, 2, DynamicSchedule(chunk_size=1),
                            per_chunk_overhead=0.5)
        assert cost.makespan > base.makespan

    def test_imbalance_metric(self):
        out = run_schedule(np.array([4.0, 1.0]), 2, DynamicSchedule())
        assert out.imbalance == pytest.approx(4.0 / 2.5)

    def test_empty(self):
        out = run_schedule(np.empty(0), 3, DynamicSchedule())
        assert out.makespan == 0.0


class TestThreadPool:
    def test_results_in_order(self):
        out = parallel_for(lambda x: x * x, list(range(20)), threads=4)
        assert out == [x * x for x in range(20)]

    def test_single_thread_inline(self):
        out = parallel_for(lambda x: x + 1, [1, 2, 3], threads=1)
        assert out == [2, 3, 4]

    def test_effective_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert effective_threads() == 7
        monkeypatch.setenv("REPRO_NUM_THREADS", "junk")
        assert effective_threads() >= 1
        assert effective_threads(3) == 3

    def test_results_ordered_despite_timing_inversion(self):
        # Early items sleep longest: with a pool, later items *finish*
        # first, but results must still come back in input order.
        def work(i):
            time.sleep(0.02 * (5 - i))
            return i
        assert parallel_for(work, list(range(5)), threads=4) == \
            list(range(5))

    def test_exception_propagates_from_worker(self):
        def boom(i):
            if i == 3:
                raise RuntimeError(f"worker {i} failed")
            return i
        with pytest.raises(RuntimeError, match="worker 3 failed"):
            parallel_for(boom, list(range(6)), threads=4)

    def test_exception_propagates_inline(self):
        with pytest.raises(ZeroDivisionError):
            parallel_for(lambda x: 1 // x, [1, 0], threads=1)

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "7")
        assert effective_threads(2) == 2

    def test_invalid_int_env_falls_back_to_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert effective_threads() == usable_cores()

    def test_nonpositive_env_values_ignored(self, monkeypatch):
        for bad in ("0", "-4"):
            monkeypatch.setenv("REPRO_NUM_THREADS", bad)
            assert effective_threads() == usable_cores()

    def test_empty_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "")
        assert effective_threads() == usable_cores()

    def test_nonpositive_request_falls_through(self, monkeypatch):
        # requested <= 0 is treated as "unset" and defers to the env var.
        monkeypatch.setenv("REPRO_NUM_THREADS", "5")
        assert effective_threads(0) == 5
        assert effective_threads(-1) == 5
