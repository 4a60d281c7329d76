"""Fault injection, numerical guards, checkpoint/resume, and preemption.

Every fault class the harness can inject is proven to be detected and
handled per the configured policy — no injected NaN ever reaches a
returned model silently — and a checkpointed run is proven to resume
bit-identically against an uninterrupted reference run, also from a
versioned checkpoint store with a corrupt latest version and after a
SIGTERM/SIGINT preemption.
"""

import errno
import os
import signal
import threading
from dataclasses import replace

import numpy as np
import pytest

import repro.core.serialize as serialize
from repro import AOADMMOptions, fit_aoadmm
from repro.robustness import (
    Checkpoint,
    CheckpointStore,
    CheckpointUnavailable,
    FaultInjector,
    FaultSpec,
    GuardEvent,
    HealthMonitor,
    NumericalFaultError,
    load_checkpoint,
    preempt_on_signals,
    resolve_resume,
    save_checkpoint,
)
from repro.integrity import IntegrityError
from repro.robustness.checkpoint import (
    CHECKPOINT_VERSION,
    QUARANTINE_SUFFIX,
    options_fingerprint,
)
from repro.tensor import noisy_lowrank_coo


@pytest.fixture(scope="module")
def tensor():
    t, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000, seed=0)
    return t


def make_options(**kw):
    base = dict(rank=4, constraints="nonneg", seed=0,
                max_outer_iterations=10, outer_tolerance=0.0)
    base.update(kw)
    return AOADMMOptions(**base)


@pytest.fixture(scope="module")
def reference(tensor):
    """The uninterrupted run every resumed fit must reproduce bit-for-bit."""
    return fit_aoadmm(tensor, make_options())


def assert_identical(reference, result):
    for m, (a, b) in enumerate(zip(reference.model.factors,
                                   result.model.factors)):
        np.testing.assert_array_equal(a, b, err_msg=f"mode {m}")
    np.testing.assert_array_equal(reference.trace.errors(),
                                  result.trace.errors())


# ----------------------------------------------------------------------
# Numerical guards vs injected faults
# ----------------------------------------------------------------------

class TestGuardPolicies:
    def test_mttkrp_nan_raises_by_default(self, tensor):
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=3, mode=1)])
        with pytest.raises(NumericalFaultError) as excinfo:
            fit_aoadmm(tensor, make_options(fault_injector=inj))
        event = excinfo.value.event
        assert event.site == "mttkrp"
        assert event.iteration == 3 and event.mode == 1
        assert inj.injected  # the fault really fired

    def test_mttkrp_nan_rollback_restores_best(self, tensor):
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=3, mode=1)])
        result = fit_aoadmm(tensor, make_options(
            guard_policy="rollback", fault_injector=inj))
        assert result.stop_reason == "rollback"
        assert result.iterations == 2  # iterations before the fault
        assert all(np.isfinite(f).all() for f in result.model.factors)
        assert len(result.trace.guard_log) == 1
        assert result.trace.guard_log[0].action == "rollback"

    def test_mttkrp_nan_repair_continues(self, tensor):
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=3, mode=1)])
        result = fit_aoadmm(tensor, make_options(
            guard_policy="repair", fault_injector=inj))
        assert result.stop_reason == "max_iterations"
        assert all(np.isfinite(f).all() for f in result.model.factors)
        events = result.trace.guard_events()
        assert [e.action for e in events] == ["repair"]
        assert result.trace.records[2].guard_events == (events[0],)

    def test_indefinite_gram_survives_via_jitter(self, tensor):
        """An indefinite Gram is repaired by Cholesky jitter escalation,
        and the jitter shows up in the trace (satellite 4)."""
        inj = FaultInjector([
            FaultSpec("indefinite_gram", iteration=2, mode=0)])
        result = fit_aoadmm(tensor, make_options(
            max_outer_iterations=5, fault_injector=inj))
        assert result.iterations >= 2  # the run survived the bad Gram
        assert result.trace.total_jitter() > 0.0
        assert result.trace.records[1].total_jitter > 0.0
        assert result.trace.records[0].total_jitter == 0.0
        assert all(np.isfinite(f).all() for f in result.model.factors)

    def test_divergence_rollback(self, tensor):
        inj = FaultInjector([
            FaultSpec("diverge_error", iteration=3, once=False)])
        result = fit_aoadmm(tensor, make_options(
            max_outer_iterations=20, guard_policy="rollback",
            divergence_patience=1, fault_injector=inj))
        assert result.stop_reason == "diverged"
        # The best (pre-divergence) iterate is returned, not the last.
        assert result.iterations == 2
        healthy = fit_aoadmm(tensor, make_options(max_outer_iterations=2))
        for a, b in zip(result.model.factors, healthy.model.factors):
            np.testing.assert_array_equal(a, b)

    def test_divergence_raises_under_raise_policy(self, tensor):
        inj = FaultInjector([
            FaultSpec("diverge_error", iteration=3, once=False)])
        with pytest.raises(NumericalFaultError, match="divergence"):
            fit_aoadmm(tensor, make_options(
                max_outer_iterations=20, divergence_patience=1,
                fault_injector=inj))

    def test_guard_off_is_allowed_but_explicit(self, tensor):
        """guard_policy='off' runs the loop unguarded (opt-in only)."""
        result = fit_aoadmm(tensor, make_options(
            max_outer_iterations=3, guard_policy="off"))
        assert not result.trace.guard_events()

    def test_no_silent_nan_under_any_guarded_policy(self, tensor):
        """Whatever the (non-off) policy, an injected NaN never reaches
        the returned model."""
        for policy in ("raise", "rollback", "repair"):
            inj = FaultInjector([
                FaultSpec("mttkrp_nan", iteration=2, mode=0)])
            try:
                result = fit_aoadmm(tensor, make_options(
                    max_outer_iterations=4, guard_policy=policy,
                    fault_injector=inj))
            except NumericalFaultError:
                assert policy == "raise"
                continue
            assert all(np.isfinite(f).all() for f in result.model.factors)
            assert np.isfinite(result.trace.errors()).all()

    def test_monitor_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(policy="bogus")
        with pytest.raises(ValueError):
            HealthMonitor(divergence_patience=0)
        with pytest.raises(ValueError):
            AOADMMOptions(guard_policy="bogus")

    def test_guard_event_round_trip(self):
        event = GuardEvent(iteration=4, kind="nonfinite", site="mttkrp",
                           action="repair", mode=2, detail="1 entry")
        assert GuardEvent.from_dict(event.to_dict()) == event


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------

class TestCheckpointResume:
    @pytest.mark.parametrize("blocked", [True, False])
    def test_kill_and_resume_is_bit_identical(self, tensor, tmp_path,
                                              blocked):
        """Interrupt at iteration 5, resume to 10: the resumed trace and
        model match an uninterrupted 10-iteration run exactly."""
        full = fit_aoadmm(tensor, make_options(blocked=blocked))
        path = tmp_path / "ck.npz"
        partial = fit_aoadmm(tensor, make_options(
            blocked=blocked, max_outer_iterations=5,
            checkpoint_every=5, checkpoint_path=path))
        assert partial.iterations == 5 and path.exists()
        resumed = fit_aoadmm(tensor, make_options(blocked=blocked),
                             resume_from=path)
        np.testing.assert_array_equal(full.trace.errors(),
                                      resumed.trace.errors())
        for a, b in zip(full.model.factors, resumed.model.factors):
            np.testing.assert_array_equal(a, b)
        assert resumed.stop_reason == full.stop_reason

    def test_resume_respects_stopping_rules(self, tensor, tmp_path):
        """A resumed run with the same budget stops immediately."""
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=4, checkpoint_every=2,
            checkpoint_path=path))
        resumed = fit_aoadmm(tensor, make_options(max_outer_iterations=4),
                             resume_from=path)
        assert resumed.iterations == 4
        assert resumed.stop_reason == "max_iterations"

    def test_checkpoint_round_trip_fields(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        result = fit_aoadmm(tensor, make_options(
            max_outer_iterations=3, checkpoint_every=3,
            checkpoint_path=path))
        checkpoint = load_checkpoint(path)
        assert isinstance(checkpoint, Checkpoint)
        assert checkpoint.iteration == 3
        assert len(checkpoint.primals) == 3
        np.testing.assert_array_equal(checkpoint.trace.errors(),
                                      result.trace.errors())
        assert checkpoint.last_error == result.relative_error
        assert checkpoint.meta["rng"]["seed"] == 0
        for primal, factor in zip(checkpoint.primals,
                                  result.model.factors):
            np.testing.assert_array_equal(primal, factor)

    def test_resume_accepts_loaded_checkpoint(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=5, checkpoint_every=5,
            checkpoint_path=path))
        via_path = fit_aoadmm(tensor, make_options(), resume_from=path)
        via_object = fit_aoadmm(tensor, make_options(),
                                resume_from=load_checkpoint(path))
        np.testing.assert_array_equal(via_path.trace.errors(),
                                      via_object.trace.errors())

    def test_wrong_tensor_rejected(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        other, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000,
                                     seed=1)
        with pytest.raises(ValueError, match="different tensor"):
            fit_aoadmm(other, make_options(), resume_from=path)

    def test_numeric_option_mismatch_rejected(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        with pytest.raises(ValueError, match="rank"):
            fit_aoadmm(tensor, make_options(rank=5), resume_from=path)
        with pytest.raises(ValueError, match="constraints"):
            fit_aoadmm(tensor, make_options(constraints="l1"),
                       resume_from=path)

    def test_stopping_rule_changes_are_allowed(self, tensor):
        """max iterations / tolerance / threads may differ on resume."""
        a = options_fingerprint(make_options())
        b = options_fingerprint(make_options(
            max_outer_iterations=99, outer_tolerance=0.5, threads=4))
        assert a == b

    def test_constraint_spec_forms_fingerprint_identically(self):
        """A CLI-written checkpoint (Constraint instance) must resume
        from library code using the string spec, and vice versa — but
        different constraint parameters must still be distinguished."""
        from repro.constraints import L1, NonNegative
        assert options_fingerprint(make_options(constraints="nonneg")) == \
            options_fingerprint(make_options(constraints=NonNegative()))
        assert options_fingerprint(make_options(constraints=L1(0.1))) != \
            options_fingerprint(make_options(constraints=L1(0.5)))

    def test_cross_spec_resume(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        from repro.constraints import NonNegative
        fit_aoadmm(tensor, make_options(
            constraints=NonNegative(), max_outer_iterations=3,
            checkpoint_every=3, checkpoint_path=path))
        resumed = fit_aoadmm(tensor, make_options(
            constraints="nonneg", max_outer_iterations=6),
            resume_from=path)
        assert resumed.iterations == 6

    def test_resume_excludes_initial_factors(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        factors = [np.ones((s, 4)) for s in tensor.shape]
        with pytest.raises(ValueError, match="mutually exclusive"):
            fit_aoadmm(tensor, make_options(), resume_from=path,
                       initial_factors=factors)

    def test_corrupted_checkpoint_rejected(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        checkpoint = load_checkpoint(path)
        checkpoint.primals[0][0, 0] += 1.0
        save_checkpoint(path, tensor, make_options(),
                        checkpoint.states(), checkpoint.trace)
        # Re-saving honest state still loads; byte-level tampering fails.
        load_checkpoint(path)
        import zipfile
        with zipfile.ZipFile(path) as z:
            names = z.namelist()
        assert any(n.startswith("primal0") for n in names)
        bad = tmp_path / "bad.npz"
        np.savez(bad, primal0=np.ones((2, 2)))
        with pytest.raises(ValueError, match="not a repro state file"):
            load_checkpoint(bad)
        from repro.core.serialize import save_state_npz
        other = save_state_npz(tmp_path / "other.npz",
                               {"x": np.ones(2)}, {"format": "something"})
        with pytest.raises(ValueError, match="not an AO-ADMM checkpoint"):
            load_checkpoint(other)

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            AOADMMOptions(checkpoint_every=5)

    def test_guard_events_survive_checkpoint(self, tensor, tmp_path):
        """Repair events recorded before a checkpoint reappear after it."""
        path = tmp_path / "ck.npz"
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=2, mode=0)])
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=4, guard_policy="repair",
            fault_injector=inj, checkpoint_every=4, checkpoint_path=path))
        checkpoint = load_checkpoint(path)
        events = checkpoint.trace.guard_events()
        assert [e.action for e in events] == ["repair"]
        assert events[0].iteration == 2


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
# Background checkpoint writes
# ----------------------------------------------------------------------

EXECUTORS = pytest.mark.parametrize("executor", ["serial", "thread"])


def _versions(path):
    store = CheckpointStore(path)
    return {store._iteration_of(p): load_checkpoint(p)
            for p in store.versions()}


class TestBackgroundCheckpointWrite:
    """``fit_aoadmm`` writes each checkpoint on the engine executor's
    I/O pool (inline under ``serial``) while the next iteration runs."""

    @EXECUTORS
    @pytest.mark.parametrize("fail_at", [2, 4], ids=["mid", "last"])
    @pytest.mark.parametrize("keep_last", [None, 10],
                             ids=["plain", "store"])
    def test_write_error_surfaces_and_leaves_no_temp_file(
            self, tensor, tmp_path, monkeypatch, executor, fail_at,
            keep_last):
        real_savez = np.savez
        calls = []

        def savez(handle, **payload):
            calls.append(threading.current_thread().name)
            if len(calls) == fail_at:
                handle.write(b"partial")
                raise OSError(errno.ENOSPC, "No space left on device")
            real_savez(handle, **payload)

        monkeypatch.setattr(serialize.np, "savez", savez)
        path = tmp_path / "ck.npz"
        with pytest.raises(OSError, match="No space left"):
            fit_aoadmm(tensor, make_options(
                max_outer_iterations=4, checkpoint_every=1,
                checkpoint_path=path, checkpoint_keep_last=keep_last,
                executor=executor))
        monkeypatch.undo()
        names = sorted(p.name for p in tmp_path.iterdir())
        if keep_last is None:
            assert names == ["ck.npz"]
            assert load_checkpoint(path).iteration == fail_at - 1
        else:
            # The failed version never appears; the ones before it do.
            assert sorted(_versions(path)) == list(range(1, fail_at))
            assert len(names) == fail_at - 1
        # The next checkpoint waits for the failed one and raises: no
        # write is attempted after it.
        assert len(calls) == fail_at

    @EXECUTORS
    def test_writes_run_off_the_main_thread_one_at_a_time(
            self, tensor, tmp_path, monkeypatch, executor):
        real_save = CheckpointStore.save
        lock = threading.Lock()
        threads, active, peak = [], [0], [0]

        def save(self, *args, **kwargs):
            threads.append(threading.current_thread())
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return real_save(self, *args, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(CheckpointStore, "save", save)
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=6, checkpoint_every=1,
            checkpoint_path=path, checkpoint_keep_last=10,
            executor=executor))
        assert len(threads) == 6 and peak[0] == 1
        on_main = [t is threading.main_thread() for t in threads]
        assert all(on_main) if executor == "serial" else not any(on_main)
        # Every write is durable once the fit returns.
        assert sorted(_versions(path)) == list(range(1, 7))

    def test_every_version_equal_across_executors(self, tensor, tmp_path):
        runs = {}
        for executor in ("serial", "thread"):
            path = tmp_path / executor / "ck.npz"
            path.parent.mkdir()
            result = fit_aoadmm(tensor, make_options(
                max_outer_iterations=6, checkpoint_every=1,
                checkpoint_path=path, checkpoint_keep_last=10,
                executor=executor))
            runs[executor] = (result, _versions(path))
        (ref, serial), (res, thread) = runs["serial"], runs["thread"]
        assert sorted(serial) == sorted(thread) == list(range(1, 7))
        for k in serial:
            a, b = serial[k], thread[k]
            assert a.iteration == b.iteration == k
            for x, y in zip(a.primals + a.duals, b.primals + b.duals):
                np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(a.rhos, b.rhos)
            np.testing.assert_array_equal(a.trace.errors(),
                                          b.trace.errors())
            # Version k holds iteration k's state, not a later one.
            np.testing.assert_array_equal(a.trace.errors(),
                                          ref.trace.errors()[:k])
        for primal, factor in zip(thread[6].primals, res.model.factors):
            np.testing.assert_array_equal(primal, factor)
        assert_identical(ref, res)

    @EXECUTORS
    def test_resume_is_bit_identical(self, tensor, reference, tmp_path,
                                     executor):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=5, checkpoint_every=1,
            checkpoint_path=path, checkpoint_keep_last=2,
            executor=executor))
        resumed = fit_aoadmm(tensor, make_options(executor=executor),
                             resume_from=path)
        assert_identical(reference, resumed)

    @EXECUTORS
    def test_preempt_leaves_the_final_iteration_on_disk(
            self, tensor, reference, tmp_path, executor):
        flag = threading.Event()
        path = tmp_path / "ck.npz"
        result = fit_aoadmm(tensor, make_options(
            checkpoint_every=2, checkpoint_path=path, preempt_flag=flag,
            executor=executor,
            callback=lambda r: (r.iteration == 3 and flag.set()) and False))
        assert result.stop_reason == "preempted"
        checkpoint = load_checkpoint(path)
        assert checkpoint.iteration == 3
        for primal, factor in zip(checkpoint.primals,
                                  result.model.factors):
            np.testing.assert_array_equal(primal, factor)
        assert_identical(reference, fit_aoadmm(
            tensor, make_options(), resume_from=path))


class TestCheckpointFormat:
    def _v1_file(self, tensor, tmp_path, checksum):
        """A version-1 file: ``state_sha1`` over the primals."""
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        arrays, meta = serialize.load_state_npz(path)
        meta.pop(serialize.PAYLOAD_SHA_KEY)
        meta["version"] = 1
        meta["state_sha1"] = serialize.array_fingerprint(
            *(arrays[f"primal{m}"] for m in range(meta["nmodes"])))
        v1 = tmp_path / "v1.npz"
        serialize.save_state_npz(v1, arrays, meta, checksum=checksum)
        return v1, arrays, meta

    def test_new_checkpoints_hash_once(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        meta = load_checkpoint(path).meta
        assert CHECKPOINT_VERSION == 2 and meta["version"] == 2
        assert "state_sha1" not in meta
        assert serialize.PAYLOAD_SHA_KEY in meta

    @pytest.mark.parametrize("checksum", [False, True],
                             ids=["state-only", "state+payload"])
    def test_v1_file_loads_and_resumes(self, tensor, reference, tmp_path,
                                       checksum):
        v1, arrays, _ = self._v1_file(tensor, tmp_path, checksum)
        checkpoint = load_checkpoint(v1)
        assert checkpoint.meta["version"] == 1
        np.testing.assert_array_equal(checkpoint.primals[0],
                                      arrays["primal0"])
        assert_identical(reference, fit_aoadmm(
            tensor, make_options(), resume_from=v1))

    def test_v1_file_with_a_flipped_primal_byte_rejected(self, tensor,
                                                         tmp_path):
        v1, arrays, meta = self._v1_file(tensor, tmp_path, checksum=False)
        primal = arrays["primal1"].copy()
        primal.view(np.uint8)[5] ^= 0x10
        arrays["primal1"] = primal
        serialize.save_state_npz(v1, arrays, meta, checksum=False)
        with pytest.raises(ValueError, match="factor state hash mismatch"):
            load_checkpoint(v1)

    def test_v2_file_with_a_flipped_primal_byte_rejected(self, tensor,
                                                         tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        arrays, meta = serialize.load_state_npz(path)
        arrays["primal0"].view(np.uint8)[3] ^= 0x01
        serialize.save_state_npz(path, arrays, meta, checksum=False)
        with pytest.raises(IntegrityError, match="payload checksum"):
            load_checkpoint(path)

    def test_file_without_any_checksum_rejected(self, tensor, tmp_path):
        path = tmp_path / "ck.npz"
        fit_aoadmm(tensor, make_options(
            max_outer_iterations=2, checkpoint_every=2,
            checkpoint_path=path))
        arrays, meta = serialize.load_state_npz(path)
        meta.pop(serialize.PAYLOAD_SHA_KEY)
        serialize.save_state_npz(path, arrays, meta, checksum=False)
        with pytest.raises(ValueError, match="carries no checksum"):
            load_checkpoint(path)


# ----------------------------------------------------------------------
# Graceful preemption
# ----------------------------------------------------------------------

def sigterm_at(iteration, signum=signal.SIGTERM):
    """A callback that signals this process after *iteration* (never stops)."""
    return lambda record: (record.iteration == iteration
                           and os.kill(os.getpid(), signum)) and False


class TestPreemption:
    def test_preempt_flag_stops_with_checkpoint(self, tensor, reference,
                                                tmp_path):
        flag = threading.Event()
        opts = make_options(
            checkpoint_every=1, checkpoint_keep_last=2,
            checkpoint_path=str(tmp_path / "ck.npz"),
            preempt_flag=flag,
            callback=lambda r: (r.iteration == 3 and flag.set()) and False)
        result = fit_aoadmm(tensor, opts)
        assert result.stop_reason == "preempted"
        assert len(result.trace) == 3
        resumed = fit_aoadmm(tensor, make_options(),
                             resume_from=tmp_path / "ck.npz")
        assert_identical(reference, resumed)

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT],
                             ids=["SIGTERM", "SIGINT"])
    def test_signal_sets_preempt_flag(self, tensor, tmp_path, signum):
        previous = signal.getsignal(signum)
        with preempt_on_signals() as flag:
            assert signal.getsignal(signum) is not previous
            result = fit_aoadmm(tensor, make_options(
                max_outer_iterations=50,
                checkpoint_every=1, checkpoint_keep_last=2,
                checkpoint_path=str(tmp_path / "ck.npz"),
                preempt_flag=flag, callback=sigterm_at(2, signum)))
        assert flag.is_set()
        assert result.stop_reason == "preempted"
        assert len(result.trace) == 2
        assert signal.getsignal(signum) is previous  # restored

    def test_handlers_restored_when_the_fit_raises(self, tensor):
        previous = signal.getsignal(signal.SIGTERM)
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=2, mode=0)])
        with pytest.raises(NumericalFaultError):
            with preempt_on_signals() as flag:
                fit_aoadmm(tensor, make_options(fault_injector=inj,
                                                preempt_flag=flag))
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_off_main_thread_raises(self):
        previous = signal.getsignal(signal.SIGTERM)
        errors = []

        def worker():
            try:
                with preempt_on_signals():
                    pass
            except ValueError as exc:
                errors.append(exc)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert len(errors) == 1
        assert signal.getsignal(signal.SIGTERM) is previous


# ----------------------------------------------------------------------
# stop_reason contract (satellite 2)
# ----------------------------------------------------------------------

class TestStopReasons:
    def test_all_documented_reasons_are_producible(self, tensor):
        reasons = set()
        reasons.add(fit_aoadmm(tensor, make_options(
            outer_tolerance=0.9)).stop_reason)
        reasons.add(fit_aoadmm(tensor, make_options(
            max_outer_iterations=2)).stop_reason)
        reasons.add(fit_aoadmm(tensor, make_options(
            callback=lambda record: record.iteration >= 2)).stop_reason)
        reasons.add(fit_aoadmm(tensor, make_options(
            time_budget_seconds=1e-9)).stop_reason)
        assert reasons == {"tolerance", "max_iterations", "callback",
                           "time_budget"}

    def test_guard_stop_reasons(self, tensor):
        inj = FaultInjector([FaultSpec("mttkrp_nan", iteration=2, mode=0)])
        rollback = fit_aoadmm(tensor, make_options(
            guard_policy="rollback", fault_injector=inj))
        inj = FaultInjector([
            FaultSpec("diverge_error", iteration=2, once=False)])
        diverged = fit_aoadmm(tensor, make_options(
            guard_policy="rollback", divergence_patience=1,
            fault_injector=inj))
        assert {rollback.stop_reason, diverged.stop_reason} == \
            {"rollback", "diverged"}


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

class TestRobustnessCLI:
    def test_checkpoint_and_resume_flags(self, tensor, tmp_path):
        from repro.cli import main
        from repro.core import load_model
        from repro.tensor import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        ck = tmp_path / "ck.npz"
        common = ["factorize", str(tns), "--rank", "4", "--seed", "0",
                  "--tolerance", "0.0"]
        full_out = tmp_path / "full.npz"
        assert main(common + ["--max-iterations", "6",
                              "--output", str(full_out)]) == 0
        assert main(common + ["--max-iterations", "3",
                              "--checkpoint", str(ck),
                              "--checkpoint-every", "3"]) == 0
        resumed_out = tmp_path / "resumed.npz"
        assert main(common + ["--max-iterations", "6",
                              "--resume", str(ck),
                              "--output", str(resumed_out)]) == 0
        full = load_model(full_out)
        resumed = load_model(resumed_out)
        for a, b in zip(full.factors, resumed.factors):
            np.testing.assert_array_equal(a, b)

    def test_sigterm_exits_3_then_resume_is_bit_identical(
            self, tensor, tmp_path, monkeypatch, capsys):
        # `factorize --checkpoint` turns SIGTERM into a graceful stop:
        # exit code 3, a final checkpoint, and a resumable run.
        import repro.core.aoadmm as aoadmm
        from repro.cli import main
        from repro.core import load_model
        from repro.tensor import write_tns
        tns = tmp_path / "t.tns"
        write_tns(tensor, tns)
        ck = tmp_path / "ck.npz"
        common = ["factorize", str(tns), "--rank", "4", "--seed", "0",
                  "--tolerance", "0.0", "--max-iterations", "6"]
        full_out = tmp_path / "full.npz"
        assert main(common + ["--output", str(full_out)]) == 0

        fit = aoadmm.fit_aoadmm
        monkeypatch.setattr(
            aoadmm, "fit_aoadmm",
            lambda tensor, options, **kw: fit(
                tensor, replace(options, callback=sigterm_at(2)), **kw))
        previous = signal.getsignal(signal.SIGTERM)
        assert main(common + ["--checkpoint", str(ck)]) == 3
        assert signal.getsignal(signal.SIGTERM) is previous
        assert f"resume with --resume {ck}" in capsys.readouterr().out
        assert load_checkpoint(ck).iteration == 2
        monkeypatch.undo()

        resumed_out = tmp_path / "resumed.npz"
        assert main(common + ["--resume", str(ck),
                              "--output", str(resumed_out)]) == 0
        full = load_model(full_out)
        resumed = load_model(resumed_out)
        for a, b in zip(full.factors, resumed.factors):
            np.testing.assert_array_equal(a, b)
