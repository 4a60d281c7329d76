"""Distributed AO-ADMM driver.

Per outer iteration, per mode:

1. every rank computes the MTTKRP of its tensor shard (local, zero
   communication) — the shards partition the non-zeros, so the local
   results **sum** to the global ``K``;
2. one ``allreduce`` combines them — the only communication the
   blockwise formulation needs, exactly as Section IV-B observes;
3. every rank runs blocked ADMM on its (block-aligned) row range of the
   factor — fully local: blocks never talk to each other;
4. an ``allgather`` reassembles the updated factor for the next mode's
   MTTKRP.

Because the math is unchanged, the distributed trace matches the
shared-memory blocked solver's trace exactly (tested); the value of this
module is the *communication accounting* (bytes, collective counts, and
a latency/bandwidth time estimate) and the per-rank compute times it
reports, which together give the strong-scaling estimate in
``benchmarks/bench_distributed_scaling.py``.

Fault tolerance: a rank that fails or times out during its local MTTKRP
(simulated via :class:`repro.robustness.faults.WorkerFaultPlan`, raising
:class:`~repro.distributed.comm.WorkerFailure`) is first retried
(``max_retries``); a rank that keeps failing is dropped — the tensor is
re-partitioned over the survivors, the shard engines are rebuilt, and
the run continues.  A retried rank changes nothing (local MTTKRPs are
idempotent, so the retried trace is bit-identical to the healthy one);
a re-partition preserves the math but sums the allreduce over a
different shard count, so the post-failover trace matches the healthy
run to floating-point summation order (~1 ulp; tested).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..admm.blocked import blocked_admm_update
from ..admm.rho import make_rho_policy
from ..admm.state import AdmmState
from ..core.convergence import ConvergenceCriterion
from ..core.cpd import CPModel
from ..core.init import init_factors
from ..core.options import AOADMMOptions
from ..core.trace import FactorizationTrace, OuterIterationRecord
from ..kernels.dispatch import MTTKRPEngine
from ..linalg.grams import GramCache
from ..observability import StageClock, record_iteration, span
from ..sparse.analysis import density
from ..tensor.coo import COOTensor
from ..validation import require
from .comm import CollectiveLog, SimComm, WorkerFailure
from .partition import DistributedPartition, partition_tensor


@dataclass(frozen=True)
class FailoverEvent:
    """One handled worker failure (what happened and what was done)."""

    #: Outer iteration (1-based) during which the failure occurred.
    iteration: int
    #: Mode whose local MTTKRP the rank was computing.
    mode: int
    #: Original rank id (stable across re-partitions).
    rank: int
    #: ``"crash"`` or ``"timeout"``.
    kind: str
    #: ``"retry"`` (the rank was retried) or ``"repartition"`` (the rank
    #: was dropped and its shard redistributed over the survivors).
    action: str


@dataclass
class DistributedResult:
    """Model + trace + the distributed-execution accounting."""

    model: CPModel
    trace: FactorizationTrace
    converged: bool
    stop_reason: str
    options: AOADMMOptions
    #: Communication accounting from the simulated communicator.
    comm_log: CollectiveLog
    #: Per-rank compute seconds (MTTKRP + ADMM), summed over the run.
    #: Indexed by *original* rank id; a dropped rank stops accumulating.
    rank_compute_seconds: tuple[float, ...]
    #: The final partition (post-failover when ranks were dropped).
    partition: DistributedPartition
    #: Every handled worker failure, in order (empty in healthy runs).
    failover_events: tuple[FailoverEvent, ...] = ()

    @property
    def relative_error(self) -> float:
        return self.trace.final_error()

    def estimated_parallel_seconds(self) -> float:
        """Strong-scaling estimate: slowest rank's compute + all comm."""
        return max(self.rank_compute_seconds) + self.comm_log.total_seconds()

    def estimated_speedup(self) -> float:
        """Estimated speedup over running all compute on one rank."""
        serial = sum(self.rank_compute_seconds)
        parallel = self.estimated_parallel_seconds()
        return serial / parallel if parallel > 0 else float("inf")


def fit_aoadmm_distributed(tensor: COOTensor,
                           options: AOADMMOptions | None = None,
                           ranks: int = 4,
                           comm: SimComm | None = None,
                           initial_factors: list[np.ndarray] | None = None,
                           fault_plan: object = None,
                           max_retries: int = 1
                           ) -> DistributedResult:
    """Factorize *tensor* with the distributed blocked AO-ADMM.

    Parameters
    ----------
    ranks:
        Simulated world size.
    comm:
        A pre-built :class:`SimComm` (for custom network parameters).
    fault_plan:
        A :class:`repro.robustness.faults.WorkerFaultPlan` (or anything
        with its ``maybe_fail(rank, iteration, mode)`` protocol) that
        injects simulated worker failures; ``None`` in production runs.
    max_retries:
        Failed-worker retries per failure before the rank is dropped and
        the tensor re-partitioned over the survivors.

    Notes
    -----
    Numerics are identical to ``fit_aoadmm(..., blocked=True)`` with the
    same options whenever the factor row ranges are block aligned (the
    partitioner guarantees this), because blocked ADMM's blocks are
    independent — distribution only relabels which rank owns which block.
    """
    options = options or AOADMMOptions()
    require(options.blocked,
            "the distributed driver implements the blocked variant only "
            "(unblocked ADMM would need per-inner-iteration collectives)")
    constraints = options.resolve_constraints(tensor.nmodes)
    for c in constraints:
        require(c.row_separable,
                f"constraint {c.name!r} is not row separable")
    rho_policy = make_rho_policy(options.rho_policy)
    require(max_retries >= 0, "max_retries must be non-negative")
    comm = comm or SimComm(ranks)
    require(comm.size == ranks, "comm world size must match ranks")

    setup_start = time.perf_counter()
    partition = partition_tensor(tensor, ranks,
                                 block_size=options.block_size)
    engines = [MTTKRPEngine(shard) for shard in partition.shards]
    for engine in engines:
        engine.trees.build_all()
    #: Original ids of the ranks still alive (index = current rank).
    live = list(range(ranks))
    failover: list[FailoverEvent] = []

    if initial_factors is None:
        factors = init_factors(tensor, options.rank, options.init,
                               options.seed)
    else:
        factors = [np.array(f, dtype=float, copy=True)
                   for f in initial_factors]
    states = [AdmmState.from_factor(f) for f in factors]
    gram_cache = GramCache([s.primal for s in states])
    norm_x_sq = tensor.norm_squared()
    criterion = ConvergenceCriterion(options.outer_tolerance,
                                     options.max_outer_iterations)
    trace = FactorizationTrace()
    trace.setup_seconds = time.perf_counter() - setup_start
    rank_seconds = [0.0] * ranks

    nmodes = tensor.nmodes
    converged = False
    iteration = 0
    clock = StageClock(scope="daoadmm")
    while True:
        iteration += 1
        clock.reset()
        inner_iterations: list[int] = []
        jitter: list[float] = []
        last_mttkrp: np.ndarray | None = None

        with span("daoadmm.iteration", iteration=iteration):
            for mode in range(nmodes):
                with clock.stage("other"):
                    gram = gram_cache.gram_excluding(mode)

                # (1) local MTTKRPs, (2) allreduce.  A failing rank is
                # retried; one that keeps failing is dropped and the tensor
                # re-partitioned over the survivors (local MTTKRPs are
                # idempotent, so recomputing after a failure is safe).
                current = [s.primal for s in states]
                retries_left = max_retries
                with clock.stage("mttkrp"):
                    while True:
                        try:
                            locals_k = []
                            for r, orig in enumerate(live):
                                tick = time.perf_counter()
                                if fault_plan is not None:
                                    fault_plan.maybe_fail(orig, iteration,
                                                          mode)
                                locals_k.append(
                                    engines[r].mttkrp(current, mode))
                                rank_seconds[orig] += \
                                    time.perf_counter() - tick
                            break
                        except WorkerFailure as failure:
                            if retries_left > 0:
                                retries_left -= 1
                                failover.append(FailoverEvent(
                                    iteration=iteration, mode=mode,
                                    rank=failure.rank, kind=failure.kind,
                                    action="retry"))
                                continue
                            if len(live) == 1:
                                raise  # no survivor to fail over to
                            failover.append(FailoverEvent(
                                iteration=iteration, mode=mode,
                                rank=failure.rank, kind=failure.kind,
                                action="repartition"))
                            comm = comm.without_rank(
                                live.index(failure.rank))
                            live.remove(failure.rank)
                            partition = partition_tensor(
                                tensor, len(live),
                                block_size=options.block_size)
                            engines = [MTTKRPEngine(shard)
                                       for shard in partition.shards]
                            for engine in engines:
                                engine.trees.build_all()
                            retries_left = max_retries
                kmat = comm.allreduce_sum(locals_k)

                # (3) fully local blocked ADMM per rank's row range.
                with clock.stage("admm"):
                    parts = []
                    max_inner = 0
                    mode_jitter = 0.0
                    for r, rng in enumerate(partition.factor_ranges[mode]):
                        tick = time.perf_counter()
                        local_state = AdmmState(
                            states[mode].primal[rng].copy(),
                            states[mode].dual[rng].copy())
                        if local_state.rows:
                            report = blocked_admm_update(
                                local_state, kmat[rng], gram,
                                constraints[mode],
                                rho_policy=rho_policy,
                                tolerance=options.inner_tolerance,
                                max_iterations=options.max_inner_iterations,
                                block_size=options.block_size)
                            max_inner = max(max_inner, report.iterations)
                            mode_jitter = max(mode_jitter,
                                              report.jitter_added)
                        parts.append(local_state)
                        rank_seconds[live[r]] += time.perf_counter() - tick
                inner_iterations.append(max_inner)
                jitter.append(mode_jitter)

                # (4) allgather the updated rows (and duals stay local, but
                # we reassemble them too since every rank re-enters ADMM
                # warm).
                primal = comm.allgather_rows([p.primal for p in parts])
                dual = np.concatenate([p.dual for p in parts], axis=0)
                states[mode] = AdmmState(primal, dual)

                with clock.stage("other"):
                    gram_cache.set_factor(mode, states[mode].primal)
                last_mttkrp = kmat

            with clock.stage("other"):
                assert last_mttkrp is not None
                inner = float(np.einsum("ij,ij->", last_mttkrp,
                                        states[nmodes - 1].primal))
                model_sq = max(float(gram_cache.gram_all().sum()), 0.0)
                err = float(np.sqrt(max(norm_x_sq - 2 * inner + model_sq,
                                        0.0) / norm_x_sq))

        trace.append(OuterIterationRecord.from_stages(
            clock,
            iteration=len(trace) + 1, relative_error=err,
            inner_iterations=tuple(inner_iterations),
            factor_densities=tuple(
                density(s.primal, options.factor_zero_tol)
                for s in states),
            representations=tuple("dense" for _ in range(nmodes)),
            jitter_added=tuple(jitter)))
        record_iteration(trace.records[-1], scope="daoadmm")
        if criterion.update(err):
            converged = criterion.reason == "tolerance"
            break

    model = CPModel([s.primal.copy() for s in states])
    return DistributedResult(
        model=model, trace=trace, converged=converged,
        stop_reason=criterion.reason, options=options,
        comm_log=comm.log, rank_compute_seconds=tuple(rank_seconds),
        partition=partition, failover_events=tuple(failover))
