"""Executor tests: bit-identity, selection, kernel fan-out, inputs.

The contract under test:

* MTTKRP and whole fits are **bit-identical** across the
  ``{serial, thread}`` executors × worker counts;
* the tiled kernels fan slabs out through the engine's executor:
  ``serial`` starts no worker thread, ``thread`` reuses its workers
  across calls;
* an explicit unknown executor name raises, while a malformed
  ``REPRO_EXECUTOR`` value warns once and falls back to ``thread``.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import warnings

import numpy as np
import pytest

import repro
from repro.core.options import AOADMMOptions
from repro.kernels.dispatch import MTTKRPEngine
from repro.kernels.native import root_kernel
from repro.parallel import executor as executor_module
from repro.parallel.executor import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_executor,
)
from repro.parallel.threadpool import _WARNED_ENV_VALUES, effective_threads

EXECUTORS = ("serial", "thread")

#: The kernel module (the package re-exports a function of its name).
csf_module = importlib.import_module("repro.kernels.mttkrp_csf")


def _factors(shape, rank=5, seed=23):
    gen = np.random.default_rng(seed)
    return [gen.standard_normal((s, rank)) for s in shape]


# ----------------------------------------------------------------------
# Bit-identity across the executor grid
# ----------------------------------------------------------------------

class TestExecutorBitIdentity:
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("allocation", ["all", "one"])
    def test_mttkrp_grid_three_modes(self, small_tensor, threads,
                                     allocation):
        factors = _factors(small_tensor.shape)
        results = {}
        for name in EXECUTORS:
            engine = MTTKRPEngine(small_tensor, threads=threads,
                                  slab_nnz_target=16, executor=name,
                                  csf_allocation=allocation)
            results[name] = [engine.mttkrp(factors, m).copy()
                             for m in range(small_tensor.nmodes)]
            engine.close()
        for name in EXECUTORS[1:]:
            for m in range(small_tensor.nmodes):
                np.testing.assert_array_equal(results["serial"][m],
                                              results[name][m])

    def test_mttkrp_grid_four_modes_internal_kernel(self, four_mode_tensor):
        # csf_allocation="one" routes non-root modes through the leaf
        # and *internal* kernels — all three kernels in one test.
        factors = _factors(four_mode_tensor.shape)
        results = {}
        for name in EXECUTORS:
            engine = MTTKRPEngine(four_mode_tensor, threads=4,
                                  slab_nnz_target=20, executor=name,
                                  csf_allocation="one")
            results[name] = [engine.mttkrp(factors, m).copy()
                             for m in range(four_mode_tensor.nmodes)]
            engine.close()
        for name in EXECUTORS[1:]:
            for m in range(four_mode_tensor.nmodes):
                np.testing.assert_array_equal(results["serial"][m],
                                              results[name][m])

    def test_repeated_calls_reuse_shared_buffers(self, small_tensor):
        # Steady state: the second sweep must not allocate new
        # workspace buffers.
        factors = _factors(small_tensor.shape)
        engine = MTTKRPEngine(small_tensor, threads=2, slab_nnz_target=16,
                              executor="thread")
        first = [engine.mttkrp(factors, m).copy()
                 for m in range(small_tensor.nmodes)]
        pooled = engine.workspace_bytes()
        second = [engine.mttkrp(factors, m).copy()
                  for m in range(small_tensor.nmodes)]
        assert engine.workspace_bytes() == pooled
        assert all(s.bytes_allocated == 0
                   for s in engine.call_log[-small_tensor.nmodes:])
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        engine.close()

    def test_call_log_records_executor_and_workers(self, small_tensor):
        # ``serial`` runs every slab inline, so the call used one worker
        # whatever ``threads`` says.
        factors = _factors(small_tensor.shape)
        engine = MTTKRPEngine(small_tensor, threads=3, slab_nnz_target=16,
                              executor="serial")
        engine.mttkrp(factors, 0)
        stats = engine.call_log[-1]
        assert stats.executor == "serial"
        assert stats.workers == 1
        engine.close()

    @pytest.mark.parametrize("slab_nnz_target,workers,representation", [
        pytest.param(16, 3, "dense", id="16-3"),
        pytest.param(10**9, 1, "dense", id="1000000000-1"),
        (16, 3, "csr"),
        (10**9, 1, "csr")])
    def test_call_log_records_thread_workers(self, small_tensor,
                                             slab_nnz_target, workers,
                                             representation):
        # One slab runs inline under ``thread`` too.  A sparse deep
        # factor fans out over the same slabs when the compiled kernel
        # serves it; the SciPy fallback runs the whole tree inline.
        factors = _factors(small_tensor.shape)
        factors[2][:, 1:] = 0.0  # well below the 20% density threshold
        factors[2][1:, 0] = 0.0
        engine = MTTKRPEngine(small_tensor, threads=3,
                              repr_policy=representation,
                              slab_nnz_target=slab_nnz_target,
                              executor="thread")
        engine.update_factor(2, factors[2])
        engine.mttkrp(factors, 0)
        stats = engine.call_log[-1]
        assert stats.representation == representation
        assert stats.executor == "thread"
        if representation != "dense" and root_kernel() is None:
            workers = 1
        assert (stats.slab_count > 1) == (workers > 1)
        assert stats.workers == workers
        engine.close()

    @pytest.mark.parametrize("executor", ["thread"])
    def test_full_fit_bit_identical(self, small_tensor, executor):
        kwargs = dict(rank=3, seed=5, max_outer_iterations=4,
                      slab_nnz_target=16, threads=4)
        baseline = repro.fit(small_tensor, executor="serial", **kwargs)
        other = repro.fit(small_tensor, executor=executor, **kwargs)
        for a, b in zip(baseline.factors, other.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(baseline.trace.errors(),
                                      other.trace.errors())


# ----------------------------------------------------------------------
# Executor selection / registry
# ----------------------------------------------------------------------

class TestExecutorResolution:
    def test_names_resolve_to_singletons(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("thread"), ThreadExecutor)
        assert get_executor("thread") is get_executor("thread")

    def test_instance_resolves_to_itself(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
        assert resolve_executor(None).name == "serial"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "thread")
        assert resolve_executor(None).name == "thread"
        monkeypatch.delenv(EXECUTOR_ENV_VAR)
        assert resolve_executor(None).name == "thread"

    def test_unknown_name_rejected(self, monkeypatch):
        for name in ("gpu", "process"):
            with pytest.raises(ValueError, match="unknown executor") \
                    as excinfo:
                get_executor(name)
            assert "'serial', 'thread'" in str(excinfo.value)
        # Explicit names raise; a malformed *environment* value only
        # warns (once per value) and falls back to the default — a shell
        # typo must not crash every library call.
        for value in ("bogus", "process"):
            executor_module._WARNED_ENV_VALUES.discard(value)
            monkeypatch.setenv(EXECUTOR_ENV_VAR, value)
            with pytest.warns(RuntimeWarning,
                              match="malformed REPRO_EXECUTOR"):
                ex = resolve_executor(None)
            assert ex.name == DEFAULT_EXECUTOR == "thread"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # second resolve: no re-warn
                assert resolve_executor(None).name == DEFAULT_EXECUTOR

    def test_options_validate_executor_name(self):
        for name in ("bogus", "process"):
            with pytest.raises(ValueError, match="unknown executor") \
                    as excinfo:
                AOADMMOptions(executor=name)
            assert "'serial', 'thread'" in str(excinfo.value)


# ----------------------------------------------------------------------
# parallel_for input normalization (satellite: generators must work)
# ----------------------------------------------------------------------

class TestParallelForInputs:
    def test_threadpool_accepts_generators(self):
        gen = (i + 1 for i in range(8))
        assert get_executor("thread").parallel_for(
            lambda x: 2 * x, gen, threads=3) == [2 * (i + 1) for i in range(8)]

    def test_executor_parallel_for_accepts_generators(self):
        gen = (i * i for i in range(6))
        assert get_executor("serial").parallel_for(
            lambda x: x + 1, gen, threads=2) == [i * i + 1 for i in range(6)]

    def test_single_thread_matches_multi(self):
        items = list(range(13))
        pool = get_executor("thread")
        one = pool.parallel_for(lambda x: x - 7, iter(items), threads=1)
        many = pool.parallel_for(lambda x: x - 7, iter(items), threads=4)
        assert one == many


# ----------------------------------------------------------------------
# Kernel fan-out goes through the engine's executor
# ----------------------------------------------------------------------

class TestKernelFanOut:
    @pytest.fixture
    def spy(self, monkeypatch):
        """(names of the threads that ran a slab, threads started)."""
        ran, started = [], []
        slab_downward = csf_module._slab_downward
        thread_start = threading.Thread.start

        def spy_slab(*args, **kwargs):
            ran.append(threading.current_thread().name)
            return slab_downward(*args, **kwargs)

        def spy_start(thread):
            started.append(thread.name)
            return thread_start(thread)

        monkeypatch.setattr(csf_module, "_slab_downward", spy_slab)
        monkeypatch.setattr(threading.Thread, "start", spy_start)
        return ran, started

    @staticmethod
    def _engine(tensor, threads, executor):
        # One mode-0 tree: modes 1 and 2 run the NumPy internal/leaf
        # slab sweeps, which the spy sees.
        return MTTKRPEngine(tensor, threads=threads, slab_nnz_target=16,
                            executor=executor, csf_allocation="one")

    def test_serial_starts_no_worker_thread(self, small_tensor, spy):
        ran, started = spy
        engine = self._engine(small_tensor, 4, "serial")
        factors = _factors(small_tensor.shape)
        for mode in (1, 2, 1, 2):
            engine.mttkrp(factors, mode)
        assert engine.call_log[-1].slab_count > 1
        assert started == []
        assert set(ran) == {threading.current_thread().name}

    def test_thread_calls_reuse_worker_threads(self, small_tensor, spy):
        ran, started = spy
        executor = ThreadExecutor()
        try:
            engine = self._engine(small_tensor, 2, executor)
            factors = _factors(small_tensor.shape)
            engine.mttkrp(factors, 2)
            first, workers = set(ran), list(started)
            ran.clear()
            engine.mttkrp(factors, 2)
            assert engine.call_log[-1].slab_count > 1
            # Either worker may drain the queue alone, so which of them
            # ran a slab is up to the scheduler; the contract is reuse.
            assert len(workers) == 2
            assert started == workers  # no thread started by call two
            assert first | set(ran) <= set(workers)
        finally:
            executor.close()

    def test_concurrent_calls_share_one_pool(self):
        # Eight callers race to create the pool under a short switch
        # interval; a lost update would start a second set of workers.
        executor = ThreadExecutor()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        names, results = set(), []

        def work(item):
            names.add(threading.current_thread().name)
            return item * item

        def caller():
            results.append(executor.parallel_for(work, range(50),
                                                 threads=4))

        try:
            callers = [threading.Thread(target=caller) for _ in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            executor.close()
        assert results == [[i * i for i in range(50)]] * 8
        assert len(names) <= 4


class TestEffectiveThreadsWarning:
    def test_malformed_env_warns_once_per_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        _WARNED_ENV_VALUES.discard("lots")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = effective_threads(None)
            effective_threads(None)
        assert first == (os.cpu_count() or 1)
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "REPRO_NUM_THREADS" in str(runtime[0].message)

    def test_non_positive_env_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        _WARNED_ENV_VALUES.discard("0")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            effective_threads(None)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_valid_values_do_not_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert effective_threads(None) == 3
        assert not caught
        assert effective_threads(5) == 5
