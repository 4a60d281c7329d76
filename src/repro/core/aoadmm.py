"""The AO-ADMM driver (paper Algorithm 2) with the paper's accelerations.

One outer iteration cycles over the modes; for each mode it

1. composes the Gram ``G`` from the cached per-mode Grams,
2. computes the MTTKRP ``K`` through the engine (CSF kernels, honoring the
   deep factor's dynamic sparse representation — Section IV-C),
3. runs the inner ADMM — full-matrix (baseline) or blockwise
   (Section IV-B, its row blocks fanned out over the engine's executor
   on ``options.threads`` workers) — warm-started from the previous
   outer iteration, and
4. refreshes the mode's Gram and its factor representation.

The relative error is evaluated from the *last* mode's MTTKRP via the norm
expansion identity, so convergence checking adds no kernel work.

Robustness (``repro.robustness``): the loop is wired with numerical
guards — MTTKRP outputs, post-update primal/dual states, and the error
series are health-checked every iteration per ``options.guard_policy`` —
and with periodic checkpointing (``options.checkpoint_every`` /
``checkpoint_path``).  A checkpointed run resumes **bit-identically**
via ``fit_aoadmm(..., resume_from=path)``.

Checkpoints are written behind the loop: ``fit_aoadmm`` copies the state
on its own thread and hands the write to the engine executor's
``submit_one`` (inline under the ``serial`` executor), so checkpoint *k*
is written while iteration *k+1* computes.  At most one write is in
flight; checkpoint *k* is durable once checkpoint *k+1* starts or the fit
returns, and a failed write raises from there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..admm.blocked import blocked_admm_update
from ..admm.rho import make_rho_policy
from ..admm.solver import admm_update
from ..admm.state import AdmmState
from ..kernels.dispatch import MTTKRPEngine, make_engine
from ..linalg.grams import GramCache
from ..observability import StageClock, record_admm_report, record_iteration, span
from ..robustness.checkpoint import (
    Checkpoint,
    CheckpointStore,
    TensorIdentity,
    resolve_resume,
    save_checkpoint,
    verify_checkpoint,
)
from ..robustness.guards import HealthMonitor, RollbackRequested
from ..sparse.analysis import density
from ..types import TensorSource
from ..validation import require
from .convergence import ConvergenceCriterion
from .cpd import CPModel
from .init import init_factors
from .options import AOADMMOptions
from .trace import FactorizationTrace, OuterIterationRecord


@dataclass
class FactorizationResult:
    """Everything a factorization run returns."""

    model: CPModel
    trace: FactorizationTrace
    converged: bool
    #: Why the run stopped:
    #:
    #: * ``"tolerance"`` — the relative error improved by less than
    #:   ``options.outer_tolerance`` (the only reason with
    #:   ``converged=True``);
    #: * ``"max_iterations"`` — ``options.max_outer_iterations`` reached;
    #: * ``"callback"`` — ``options.callback`` returned truthy;
    #: * ``"time_budget"`` — ``options.time_budget_seconds`` exceeded;
    #: * ``"rollback"`` — a numerical guard fired under the ``rollback``
    #:   policy and the best iterate was restored;
    #: * ``"diverged"`` — the divergence guard fired (non-``raise``
    #:   policy) and the best iterate was restored;
    #: * ``"preempted"`` — ``options.preempt_flag`` was set (e.g. by a
    #:   SIGTERM handler); a final checkpoint was written when
    #:   checkpointing is configured, so the run resumes bit-identically.
    stop_reason: str
    options: AOADMMOptions

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def relative_error(self) -> float:
        return self.trace.final_error()


def make_fit_engine(tensor: TensorSource,
                    options: AOADMMOptions) -> MTTKRPEngine:
    """The MTTKRP engine *options* ask for: the one mapping of fit
    options to :func:`~repro.kernels.dispatch.make_engine` that every
    fit method (AO-ADMM, ALS, MU, PGD) builds its engine through."""
    return make_engine(tensor, repr_policy=options.repr_policy,
                       sparsity_threshold=options.sparsity_threshold,
                       tol=options.factor_zero_tol,
                       threads=options.threads,
                       slab_nnz_target=options.slab_nnz_target,
                       executor=options.executor,
                       max_bytes_in_core=options.max_bytes_in_core,
                       rank=options.rank, tune=options.tune)


def fit_aoadmm(tensor: TensorSource,
               options: AOADMMOptions | None = None,
               initial_factors: list[np.ndarray] | None = None,
               engine: MTTKRPEngine | None = None,
               resume_from: "str | Path | Checkpoint | None" = None
               ) -> FactorizationResult:
    """Factorize *tensor* with (accelerated) AO-ADMM.

    Parameters
    ----------
    tensor:
        Any :class:`~repro.types.TensorSource` — an in-core
        :class:`~repro.tensor.coo.COOTensor` / CSF tensor, or an
        out-of-core :class:`~repro.tensor.store.ShardedTensorStore`
        (streamed under ``options.max_bytes_in_core``).
    options:
        Run configuration; defaults reproduce the paper's setup.
    initial_factors:
        Explicit starting point (e.g. to compare base vs blocked from
        identical initializations, as Figure 6 requires).  Overrides
        ``options.init`` / ``options.seed``.
    engine:
        A pre-built :class:`MTTKRPEngine` — pass one to amortize CSF
        construction across runs of the same tensor (the benchmark
        harness does this).
    resume_from:
        A checkpoint path (or loaded
        :class:`~repro.robustness.checkpoint.Checkpoint`) written by a
        previous run with ``options.checkpoint_every`` set.  The run
        continues bit-identically from the checkpointed iteration; the
        tensor and the numerics-affecting options must match (verified).

    Returns
    -------
    FactorizationResult
        The model, the per-iteration trace, and stop diagnostics.

    Raises
    ------
    repro.robustness.guards.NumericalFaultError
        When a numerical guard fires under ``guard_policy="raise"``.
    OSError
        When a checkpoint write fails; it raises when the next checkpoint
        starts or the fit returns (at once under the ``serial``
        executor).
    """
    options = options or AOADMMOptions()
    require(tensor.nmodes >= 2, "factorization needs at least two modes")
    require(tensor.nnz > 0, "cannot factor an empty tensor")
    constraints = options.resolve_constraints(tensor.nmodes)
    if options.blocked:
        for c in constraints:
            require(c.row_separable,
                    f"constraint {c.name!r} is not row separable; use "
                    "blocked=False (Section IV-B restriction)")
    rho_policy = make_rho_policy(options.rho_policy)

    setup_start = time.perf_counter()
    # The tensor's fingerprint, hashed once for the resume check and
    # every checkpoint this fit writes.
    identity: TensorIdentity | None = None
    if resume_from is not None or options.checkpoint_path is not None:
        identity = TensorIdentity(tensor)
    checkpoint: Checkpoint | None = None
    if resume_from is not None:
        require(initial_factors is None,
                "resume_from and initial_factors are mutually exclusive")
        checkpoint = resolve_resume(resume_from)
        verify_checkpoint(checkpoint, identity, options)

    if checkpoint is not None:
        states = checkpoint.states()
    else:
        if initial_factors is None:
            factors = init_factors(tensor, options.rank, options.init,
                                   options.seed)
        else:
            require(len(initial_factors) == tensor.nmodes,
                    "one initial factor per mode required")
            factors = [np.array(f, dtype=float, copy=True)
                       for f in initial_factors]
        states = [AdmmState.from_factor(f) for f in factors]

    owned_engine = engine is None
    if engine is None:
        engine = make_fit_engine(tensor, options)
    if checkpoint is not None:
        # Rebuild the dynamic factor representations (Section IV-C) the
        # uninterrupted run would carry at this point — they are a pure
        # function of the current factor values.
        for mode, state in enumerate(states):
            engine.update_factor(mode, state.primal)

    gram_cache = GramCache([s.primal for s in states])
    norm_x_sq = tensor.norm_squared()
    criterion = ConvergenceCriterion(options.outer_tolerance,
                                     options.max_outer_iterations)
    if checkpoint is not None:
        trace = checkpoint.trace
        trace.setup_seconds += time.perf_counter() - setup_start
    else:
        trace = FactorizationTrace()
        trace.setup_seconds = time.perf_counter() - setup_start

    monitor: HealthMonitor | None = None
    if options.guard_policy != "off":
        monitor = HealthMonitor(options.guard_policy,
                                options.divergence_patience)
        monitor.commit(states,
                       trace.final_error() if len(trace) else float("inf"),
                       len(trace))
    injector = options.fault_injector

    store: CheckpointStore | None = None
    if options.checkpoint_keep_last is not None:
        store = CheckpointStore(options.checkpoint_path,
                                keep_last=options.checkpoint_keep_last)

    # The checkpoint write in flight, if any (a future-like).
    pending_write = None

    def wait_for_checkpoint() -> None:
        """Block until the write in flight is durable; re-raise its error."""
        nonlocal pending_write
        if pending_write is not None:
            write, pending_write = pending_write, None
            write.result()

    def write_checkpoint() -> None:
        nonlocal pending_write
        wait_for_checkpoint()
        # Owned copies: the loop goes on mutating states, trace and
        # last_rhos while the write runs.
        snapshot = [s.copy() for s in states]
        frozen = replace(trace, records=list(trace.records),
                         guard_log=list(trace.guard_log))
        if store is not None:
            pending_write = engine.executor.submit_one(
                store.save, identity, options, snapshot, frozen,
                list(last_rhos))
        else:
            pending_write = engine.executor.submit_one(
                save_checkpoint, options.checkpoint_path, identity,
                options, snapshot, frozen, list(last_rhos))
        if pending_write.done():  # inline (serial): raise at once
            wait_for_checkpoint()

    nmodes = tensor.nmodes
    converged = False
    stop_reason = ""
    if checkpoint is not None and len(trace):
        # Replay the last recorded iteration's stop checks: a checkpoint
        # taken exactly at a stopping point must stop immediately (with
        # the same reason) instead of running one extra iteration; a
        # mid-run checkpoint leaves the criterion in exactly the state
        # the uninterrupted run had, so the resumed run stops where the
        # uninterrupted one does.
        errors = trace.errors()
        criterion.restore(float(errors[-2]) if len(errors) >= 2 else None,
                          len(errors) - 1)
        if criterion.update(float(errors[-1])):
            stop_reason = criterion.reason
        if not stop_reason and options.callback is not None \
                and options.callback(trace.records[-1]):
            stop_reason = "callback"
        if not stop_reason and options.time_budget_seconds is not None \
                and trace.total_seconds() >= options.time_budget_seconds:
            stop_reason = "time_budget"
        converged = stop_reason == "tolerance"

    last_rhos = [0.0] * nmodes
    clock = StageClock(scope="aoadmm")
    try:
        while not stop_reason:
            iteration = len(trace) + 1
            clock.reset()
            inner_iterations: list[int] = []
            block_reports: list[object] = []
            jitter: list[float] = []
            last_mttkrp: np.ndarray | None = None

            try:
                with span("aoadmm.iteration", iteration=iteration):
                    for mode in range(nmodes):
                        with clock.stage("other"):
                            gram = gram_cache.gram_excluding(mode)
                        if injector is not None:
                            gram = injector.corrupt_gram(gram, iteration, mode)

                        with clock.stage("mttkrp"):
                            current = [s.primal for s in states]
                            kmat = engine.mttkrp(current, mode)
                        if injector is not None:
                            kmat = injector.corrupt_mttkrp(kmat, iteration,
                                                           mode)
                        if monitor is not None:
                            kmat = monitor.check_mttkrp(kmat, iteration, mode)

                        with clock.stage("admm"):
                            if options.blocked:
                                report = blocked_admm_update(
                                    states[mode], kmat, gram,
                                    constraints[mode],
                                    rho_policy=rho_policy,
                                    tolerance=options.inner_tolerance,
                                    max_iterations=(
                                        options.max_inner_iterations),
                                    block_size=options.block_size,
                                    executor=engine.executor,
                                    threads=options.threads)
                            else:
                                report = admm_update(
                                    states[mode], kmat, gram,
                                    constraints[mode],
                                    rho_policy=rho_policy,
                                    tolerance=options.inner_tolerance,
                                    max_iterations=(
                                        options.max_inner_iterations))
                            inner_iterations.append(report.iterations)
                        record_admm_report(report, mode, options.blocked)
                        last_rhos[mode] = report.rho
                        jitter.append(report.jitter_added)
                        if options.track_block_reports:
                            block_reports.append(report)
                        if monitor is not None:
                            monitor.check_state(states[mode], iteration, mode)

                        with clock.stage("other"):
                            gram_cache.set_factor(mode, states[mode].primal)
                            engine.update_factor(mode, states[mode].primal)

                        last_mttkrp = kmat

                    # Relative error from the last mode's MTTKRP: K was
                    # computed with the other factors at their current
                    # values, and only mode N-1's factor changed
                    # afterwards, so <X, X_hat> = <K, A_{N-1}>.
                    with clock.stage("other"):
                        assert last_mttkrp is not None
                        inner = float(np.einsum("ij,ij->", last_mttkrp,
                                                states[nmodes - 1].primal))
                        model_sq = max(float(gram_cache.gram_all().sum()), 0.0)
                        err_sq = max(norm_x_sq - 2.0 * inner + model_sq, 0.0)
                        relative_error = float(np.sqrt(err_sq / norm_x_sq))
                    if injector is not None:
                        relative_error = injector.corrupt_error(relative_error,
                                                                iteration)
                    if monitor is not None:
                        monitor.observe_error(relative_error, iteration)
            except RollbackRequested as rollback:
                assert monitor is not None
                trace.guard_log.append(rollback.event)
                monitor.restore(states)
                stop_reason = rollback.stop_reason
                break

            densities = tuple(density(s.primal, options.factor_zero_tol)
                              for s in states)
            representations = tuple(engine.representation(m)
                                    for m in range(nmodes))
            trace.append(OuterIterationRecord.from_stages(
                clock,
                iteration=iteration,
                relative_error=relative_error,
                inner_iterations=tuple(inner_iterations),
                factor_densities=densities,
                representations=representations,
                block_reports=tuple(block_reports) if block_reports else None,
                jitter_added=tuple(jitter),
                guard_events=(monitor.drain_iteration_events()
                              if monitor is not None else ()),
            ))

            record = trace.records[-1]
            record_iteration(record, scope="aoadmm")
            if monitor is not None:
                monitor.commit(states, relative_error, iteration)
            checkpointed = False
            if options.checkpoint_every is not None \
                    and iteration % options.checkpoint_every == 0:
                write_checkpoint()
                checkpointed = True

            stop_reason = ""
            if criterion.update(relative_error):
                stop_reason = criterion.reason
            if not stop_reason and options.callback is not None \
                    and options.callback(record):
                stop_reason = "callback"
            if not stop_reason and options.time_budget_seconds is not None \
                    and trace.total_seconds() >= options.time_budget_seconds:
                stop_reason = "time_budget"
            if not stop_reason and options.preempt_flag is not None \
                    and options.preempt_flag.is_set():
                stop_reason = "preempted"
                # Persist the completed iteration so the preempted run
                # resumes bit-identically; skip when this iteration's
                # periodic checkpoint already captured exactly this state.
                if options.checkpoint_path is not None and not checkpointed:
                    write_checkpoint()
            if stop_reason:
                converged = stop_reason == "tolerance"
                break
    finally:
        # Every exit -- return, guard raise, rollback -- waits for the
        # write in flight, so no checkpoint is torn and no write error
        # is lost.
        try:
            wait_for_checkpoint()
        finally:
            if owned_engine:
                # Drop the engine's resident slabs; a caller-supplied
                # engine stays open.
                engine.close()

    model = CPModel([s.primal.copy() for s in states])
    return FactorizationResult(model=model, trace=trace, converged=converged,
                               stop_reason=stop_reason, options=options)
