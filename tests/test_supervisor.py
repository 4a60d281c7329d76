"""The resilient fit supervisor: watchdog, retry, ladder, preemption.

Acceptance contract: under each injected fault class — a stalled
iteration, a corrupted latest checkpoint, simulated memory
exhaustion, a full checkpoint disk — a supervised fit
completes without caller intervention, its factors bit-identical to the
unfaulted run, with every recovery step visible in ``trace.guard_log``
and the supervisor metrics.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import AOADMMOptions, fit, fit_aoadmm
from repro.observability import Observability
from repro.robustness import (
    Backoff,
    CheckpointStore,
    CheckpointUnavailable,
    Deadline,
    FaultInjector,
    FaultSpec,
    FitStalled,
    FitSupervisor,
    NumericalFaultError,
    RetryBudgetExceeded,
    RetryPolicy,
    SupervisorOptions,
    Watchdog,
    resolve_resume,
    supervise_fit,
)
from repro.robustness.checkpoint import QUARANTINE_SUFFIX
from repro.tensor import noisy_lowrank_coo


@pytest.fixture(scope="module")
def tensor():
    t, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000, seed=0)
    return t


def make_options(**kw):
    base = dict(rank=4, constraints="nonneg", seed=0,
                max_outer_iterations=8, outer_tolerance=0.0)
    base.update(kw)
    return AOADMMOptions(**base)


def fast_supervisor(**kw):
    """Supervisor options with no real sleeping between attempts."""
    base = dict(backoff=Backoff(initial=0.0, multiplier=1.0, max_delay=0.0),
                min_stall_seconds=2.0, install_signal_handlers=False)
    base.update(kw)
    return SupervisorOptions(**base)


@pytest.fixture(scope="module")
def reference(tensor):
    """The unfaulted run every recovery must reproduce bit-for-bit."""
    return fit_aoadmm(tensor, make_options())


def assert_identical(reference, result):
    for m, (a, b) in enumerate(zip(reference.model.factors,
                                   result.model.factors)):
        np.testing.assert_array_equal(a, b, err_msg=f"mode {m}")
    np.testing.assert_array_equal(reference.trace.errors(),
                                  result.trace.errors())


# ----------------------------------------------------------------------
# Retry primitives
# ----------------------------------------------------------------------

class TestBackoff:
    def test_schedule_doubles_and_caps(self):
        b = Backoff(initial=0.1, multiplier=2.0, max_delay=0.5)
        assert list(b.delays(5)) == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            Backoff(initial=-1.0)
        with pytest.raises(ValueError):
            Backoff(multiplier=0.5)
        with pytest.raises(ValueError):
            Backoff(initial=2.0, max_delay=1.0)


class TestDeadline:
    def test_counts_down_on_injected_clock(self):
        now = [0.0]
        d = Deadline(10.0, clock=lambda: now[0])
        assert d.remaining() == 10.0 and not d.expired
        now[0] = 4.0
        assert d.remaining() == pytest.approx(6.0)
        assert d.clamp(100.0) == pytest.approx(6.0)
        now[0] = 11.0
        assert d.expired and d.remaining() == 0.0

    def test_unbounded(self):
        d = Deadline(None)
        assert d.remaining() == float("inf") and not d.expired


class TestRetryPolicy:
    def test_transient_failure_retried_to_success(self):
        slept = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        policy = RetryPolicy(max_attempts=5, backoff=Backoff(initial=0.1),
                             sleep=slept.append)
        assert policy.call(flaky) == "ok"
        assert len(calls) == 3
        assert slept == pytest.approx([0.1, 0.2])

    def test_non_transient_propagates_immediately(self):
        calls = []

        def poisoned():
            calls.append(1)
            raise ValueError("not transient")

        policy = RetryPolicy(max_attempts=5, sleep=lambda _s: None)
        with pytest.raises(ValueError):
            policy.call(poisoned)
        assert len(calls) == 1

    def test_budget_exhaustion_chains_last_failure(self):
        def always():
            raise OSError("still broken")

        policy = RetryPolicy(max_attempts=3, sleep=lambda _s: None)
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            policy.call(always)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_on_retry_called_per_failure(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise MemoryError("pressure")
            return 42

        policy = RetryPolicy(max_attempts=4, sleep=lambda _s: None)
        assert policy.call(flaky, on_retry=lambda a, e: seen.append(a)) == 42
        assert seen == [1, 2]


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------

class TestWatchdog:
    def test_moving_estimate_and_deadline(self):
        now = [0.0]
        wd = Watchdog(stall_factor=4.0, min_deadline_seconds=0.001,
                      window=3, clock=lambda: now[0])
        assert wd.estimate() is None
        assert wd.deadline_seconds() == 0.001
        for t in (1.0, 2.0, 3.0, 5.0):
            now[0] = t
            wd.beat()
        # Intervals 1, 1, 2 -> window keeps all three, mean 4/3.
        assert wd.estimate() == pytest.approx(4.0 / 3.0)
        assert wd.deadline_seconds() == pytest.approx(16.0 / 3.0)

    def test_on_stall_fires_without_heartbeats(self):
        stalled = threading.Event()
        wd = Watchdog(min_deadline_seconds=0.05, poll_seconds=0.01,
                      on_stall=lambda _elapsed: stalled.set())
        wd.start()
        try:
            assert stalled.wait(timeout=5.0)
            assert wd.stalled and wd.stall_overshoot >= 0.0
        finally:
            wd.stop()

    def test_heartbeats_keep_it_quiet(self):
        wd = Watchdog(min_deadline_seconds=0.2, poll_seconds=0.01,
                      on_stall=lambda _e: pytest.fail("false positive"))
        with wd:
            for _ in range(5):
                time.sleep(0.02)
                wd.beat()
        assert not wd.stalled

    def test_async_injection_interrupts_target_thread(self):
        caught = []

        def victim():
            try:
                while True:
                    time.sleep(0.01)
            except FitStalled:
                caught.append(True)

        thread = threading.Thread(target=victim)
        thread.start()
        wd = Watchdog(min_deadline_seconds=0.05, poll_seconds=0.01)
        wd.start(target_thread_id=thread.ident)
        thread.join(timeout=5.0)
        wd.stop()
        assert caught == [True]


# ----------------------------------------------------------------------
# Checkpoint store: retention, quarantine, fallback
# ----------------------------------------------------------------------

class TestCheckpointStore:
    def test_versioned_layout_and_retention(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=6, checkpoint_every=1,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=2)
        fit_aoadmm(tensor, opts)
        store = CheckpointStore(path, keep_last=2)
        versions = store.versions()
        assert [store._iteration_of(p) for p in versions] == [5, 6]
        assert store.latest_path() == store.version_path(6)
        assert not path.exists()  # versioned layout, no legacy base file

    def test_prune_only_after_new_version_exists(self, tensor, tmp_path):
        # Writing version N+1 must never leave zero checkpoints even if
        # pruning is interrupted: save() orders fsync before prune.
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=3, checkpoint_every=1,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=1)
        fit_aoadmm(tensor, opts)
        store = CheckpointStore(path, keep_last=1)
        assert len(store.versions()) == 1

    def test_corrupt_latest_quarantined_and_previous_loads(self, tensor,
                                                          tmp_path):
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=4, checkpoint_every=1,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=3)
        fit_aoadmm(tensor, opts)
        store = CheckpointStore(path, keep_last=3)
        latest = store.latest_path()
        latest.write_bytes(b"garbage" * 100)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            checkpoint, loaded_from = store.load_latest()
        assert checkpoint.iteration == 3
        assert loaded_from == store.version_path(3)
        quarantined = latest.with_name(latest.name + QUARANTINE_SUFFIX)
        assert quarantined.exists() and not latest.exists()

    def test_all_corrupt_escalates(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=3, checkpoint_every=2,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=2)
        fit_aoadmm(tensor, opts)
        store = CheckpointStore(path, keep_last=2)
        for p in store.versions():
            p.write_bytes(b"\x00" * 32)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(CheckpointUnavailable):
                store.load_latest()

    def test_resolve_resume_finds_versioned_store(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=4, checkpoint_every=2,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=2)
        fit_aoadmm(tensor, opts)
        # The base path does not exist, but versions beside it do.
        checkpoint = resolve_resume(path)
        assert checkpoint.iteration == 4
        with pytest.raises(FileNotFoundError):
            resolve_resume(tmp_path / "nothing.npz")

    def test_resume_from_versioned_store_is_bit_identical(self, tensor,
                                                          reference,
                                                          tmp_path):
        path = tmp_path / "ck.npz"
        opts = make_options(max_outer_iterations=4, checkpoint_every=2,
                            checkpoint_path=str(path),
                            checkpoint_keep_last=2)
        fit_aoadmm(tensor, opts)
        resumed = fit_aoadmm(tensor, make_options(), resume_from=path)
        assert_identical(reference, resumed)


# ----------------------------------------------------------------------
# Supervised fits under injected faults (the acceptance matrix)
# ----------------------------------------------------------------------

class TestSupervisedRecovery:
    def test_clean_run_single_attempt(self, tensor, reference):
        result, report = supervise_fit(tensor, make_options(),
                                       fast_supervisor())
        assert report.attempts == 1 and not report.recovered
        assert_identical(reference, result)

    def test_stalled_iteration_interrupted_and_resumed(self, tensor,
                                                       reference):
        inj = FaultInjector([FaultSpec("stall", iteration=3)])
        result, report = supervise_fit(
            tensor, make_options(fault_injector=inj),
            fast_supervisor(min_stall_seconds=0.5))
        assert report.stalls == 1 and report.attempts == 2
        assert report.resumed_from == [2]
        assert_identical(reference, result)
        kinds = [e.kind for e in result.trace.guard_log
                 if e.site == "supervisor"]
        assert "stall" in kinds and "resume" in kinds

    def test_oom_degrades_and_recovers(self, tensor, reference):
        inj = FaultInjector([FaultSpec("oom", iteration=3)])
        result, report = supervise_fit(
            tensor, make_options(fault_injector=inj), fast_supervisor())
        assert report.attempts == 2
        assert report.degradations  # the ladder stepped
        assert_identical(reference, result)
        assert any(e.kind == "degrade" for e in result.trace.guard_log)

    def test_checkpoint_enospc_retried(self, tensor, reference, tmp_path):
        inj = FaultInjector([FaultSpec("checkpoint_enospc", iteration=2)])
        opts = make_options(fault_injector=inj,
                            checkpoint_every=1,
                            checkpoint_path=str(tmp_path / "ck.npz"))
        result, report = supervise_fit(tensor, opts, fast_supervisor())
        assert report.attempts == 2
        assert_identical(reference, result)

    def test_corrupted_latest_checkpoint_falls_back(self, tensor,
                                                    reference, tmp_path):
        # Iteration 3's checkpoint is silently corrupted after a
        # successful write; the stall at iteration 4 then forces a
        # resume, which must quarantine the corrupt version and fall
        # back to iteration 2's.
        inj = FaultInjector([
            FaultSpec("checkpoint_corrupt", iteration=3),
            FaultSpec("stall", iteration=4),
        ])
        opts = make_options(fault_injector=inj,
                            checkpoint_every=1, checkpoint_keep_last=4,
                            checkpoint_path=str(tmp_path / "ck.npz"))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            result, report = supervise_fit(
                tensor, opts, fast_supervisor(min_stall_seconds=0.5))
        assert report.resumed_from == [2]
        assert report.quarantined
        assert_identical(reference, result)

    def test_repeated_transients_walk_the_ladder(self, tensor, reference):
        inj = FaultInjector([
            FaultSpec("oom", iteration=2),
            FaultSpec("oom", iteration=4),
        ])
        opts = make_options(fault_injector=inj, executor="thread",
                            slab_nnz_target=4096, threads=2)
        result, report = supervise_fit(tensor, opts, fast_supervisor())
        assert report.attempts == 3
        assert report.degradations[0] == "executor thread->serial"
        assert report.degradations[1] == "slab_nnz_target 4096->2048"
        assert_identical(reference, result)

    def test_non_transient_numerical_fault_propagates(self, tensor):
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=2, mode=0)])
        with pytest.raises(NumericalFaultError):
            supervise_fit(tensor, make_options(fault_injector=inj),
                          fast_supervisor())

    def test_budget_exhaustion_raises(self, tensor):
        inj = FaultInjector([FaultSpec("oom", iteration=1, once=False)])
        with pytest.raises(RetryBudgetExceeded) as excinfo:
            supervise_fit(tensor, make_options(fault_injector=inj),
                          fast_supervisor(max_attempts=2, degrade=False))
        assert isinstance(excinfo.value.__cause__, MemoryError)

    def test_metrics_record_recovery(self, tensor):
        inj = FaultInjector([FaultSpec("oom", iteration=2)])
        handle = Observability(enabled=True)
        with handle.activate():
            supervise_fit(tensor, make_options(fault_injector=inj),
                          fast_supervisor())
        counters = handle.snapshot()["counters"]
        kinds = {key for key in counters if "supervisor_events" in key}
        assert any("retry" in k for k in kinds)
        assert any("degrade" in k for k in kinds)


# ----------------------------------------------------------------------
# Graceful preemption
# ----------------------------------------------------------------------

class TestPreemption:
    def test_preempt_flag_stops_with_checkpoint(self, tensor, reference,
                                                tmp_path):
        flag = threading.Event()
        opts = make_options(
            checkpoint_every=1, checkpoint_keep_last=2,
            checkpoint_path=str(tmp_path / "ck.npz"),
            preempt_flag=flag,
            callback=lambda r: (r.iteration == 3 and flag.set()) and False)
        result, report = supervise_fit(tensor, opts, fast_supervisor())
        assert result.stop_reason == "preempted"
        assert report.preempted and len(result.trace) == 3
        resumed = fit_aoadmm(tensor, make_options(),
                             resume_from=tmp_path / "ck.npz")
        assert_identical(reference, resumed)

    def test_sigterm_sets_preempt_flag(self, tensor, tmp_path):
        # In-process SIGTERM: the supervisor's handler (installed in the
        # main thread) must turn the signal into a graceful preemption.
        opts = make_options(
            max_outer_iterations=50,
            checkpoint_every=1, checkpoint_keep_last=2,
            checkpoint_path=str(tmp_path / "ck.npz"),
            callback=lambda r: (r.iteration == 2
                                and os.kill(os.getpid(), signal.SIGTERM))
            and False)
        previous = signal.getsignal(signal.SIGTERM)
        result, report = supervise_fit(
            tensor, opts, fast_supervisor(install_signal_handlers=True))
        assert result.stop_reason == "preempted"
        assert report.preempted
        assert signal.getsignal(signal.SIGTERM) is previous  # restored


# ----------------------------------------------------------------------
# fit(..., supervise=...) front door
# ----------------------------------------------------------------------

class TestFitSupervise:
    def test_supervise_true_reports(self, tensor, reference):
        result = fit(tensor, options=make_options(),
                     supervise=fast_supervisor())
        assert result.supervisor is not None
        assert result.supervisor.attempts == 1
        assert_identical(reference, result.raw)

    def test_supervised_recovery_through_fit(self, tensor, reference):
        inj = FaultInjector([FaultSpec("oom", iteration=3)])
        result = fit(tensor, options=make_options(fault_injector=inj),
                     supervise=fast_supervisor(), observe=True)
        assert result.supervisor.recovered
        assert_identical(reference, result.raw)
        assert any("supervisor_events" in k
                   for k in result.metrics["counters"])

    def test_supervise_requires_aoadmm(self, tensor):
        with pytest.raises(ValueError, match="supervise"):
            fit(tensor, rank=4, method="als", supervise=True)

    def test_unsupervised_result_has_no_report(self, tensor):
        result = fit(tensor, options=make_options())
        assert result.supervisor is None
