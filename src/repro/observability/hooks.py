"""Profiling hooks: the instrumentation points the runtime calls into.

Each ``record_*`` function is a cheap early-return no-op while
observability is disabled; when enabled it turns one runtime event —
an MTTKRP call, an inner ADMM solve, a factor-representation switch, a
finished outer iteration — into registry counters/gauges/histograms.

The MTTKRP hook also derives analytic flop/byte estimates and the
single-core roofline time from :mod:`repro.machine.spec`, so measured
kernel seconds can be read against what the machine model says the
hardware allows (the ROADMAP's "as fast as the hardware allows" check).
"""

from __future__ import annotations

from ..machine.spec import PAPER_MACHINE, MachineSpec
from .registry import ITERATION_BUCKETS
from .state import active_registry, is_enabled

# ----------------------------------------------------------------------
# Kernel-level estimates (machine/spec.py)
# ----------------------------------------------------------------------
def mttkrp_flops_bytes(tensor_nnz: int, gathered_nnz: int,
                       rank: int) -> tuple[float, float]:
    """Analytic (flops, DRAM bytes) estimate of one MTTKRP call.

    Mirrors :func:`repro.machine.kernels.mttkrp_kernel_cost` at summary
    granularity: ~3 flops per gathered factor entry (multiply into the
    running Hadamard product plus the fiber/slice accumulations), and
    read traffic of the tensor's values+indices plus the gathered factor
    rows.  ``gathered_nnz`` is the *stored* entries the leaf gather
    touches — for sparse factor representations it is what shrinks.
    """
    flops = 3.0 * float(gathered_nnz)
    bytes_ = 12.0 * float(tensor_nnz) + 8.0 * float(gathered_nnz) \
        + 8.0 * float(tensor_nnz) / max(float(rank), 1.0)
    return flops, bytes_


def roofline_seconds(flops: float, dram_bytes: float,
                     machine: MachineSpec = PAPER_MACHINE,
                     threads: int = 1) -> float:
    """Single-socket roofline lower bound for an estimated kernel."""
    compute = flops / machine.flops(threads, efficiency=0.5)
    memory = dram_bytes / machine.bandwidth(threads, "read")
    return max(compute, memory)


# ----------------------------------------------------------------------
# Instrumentation points
# ----------------------------------------------------------------------
def record_mttkrp_call(stats, rank: int | None = None) -> None:
    """One engine/dispatch MTTKRP call (an ``MTTKRPCallStats``)."""
    if not is_enabled():
        return
    reg = active_registry()
    mode = stats.mode
    reg.counter("mttkrp_calls", mode=mode,
                representation=stats.representation).inc()
    reg.histogram("mttkrp_seconds", mode=mode).observe(stats.seconds)
    reg.counter("mttkrp_gathered_nnz", mode=mode).inc(stats.gathered_nnz)
    if stats.bytes_allocated:
        reg.counter("mttkrp_workspace_bytes_allocated",
                    mode=mode).inc(stats.bytes_allocated)
    if rank is not None:
        flops, bytes_ = mttkrp_flops_bytes(stats.tensor_nnz,
                                           stats.gathered_nnz, rank)
        reg.counter("mttkrp_est_flops", mode=mode).inc(int(flops))
        reg.counter("mttkrp_est_bytes", mode=mode).inc(int(bytes_))
        floor = roofline_seconds(flops, bytes_)
        if stats.seconds > 0.0:
            reg.gauge("mttkrp_roofline_fraction",
                      mode=mode).set(floor / stats.seconds)


def record_kernel_fallback(kernel: str) -> None:
    """A compiled kernel is unavailable; its NumPy twin serves instead."""
    if not is_enabled():
        return
    active_registry().counter("kernel_fallbacks", kernel=kernel).inc()


def record_cache_event(cache: str, hit: bool) -> None:
    """A memoization lookup (e.g. the ``mttkrp(method="csf")`` tree memo).

    Cached calls used to vanish from the stats stream entirely; routing
    them here keeps every invocation visible (``*_cache_hits`` /
    ``*_cache_misses`` counters).
    """
    if not is_enabled():
        return
    reg = active_registry()
    reg.counter(f"{cache}_cache_hits" if hit
                else f"{cache}_cache_misses").inc()


def record_tiling(tiling, root_mode: int) -> None:
    """A freshly built slab tiling: slab count and nnz imbalance."""
    if not is_enabled():
        return
    reg = active_registry()
    reg.gauge("slab_count", mode=root_mode).set(tiling.slab_count)
    nnz = [slab.nnz for slab in tiling.slabs]
    if nnz:
        mean = sum(nnz) / len(nnz)
        imbalance = (max(nnz) / mean) if mean > 0 else 1.0
        reg.gauge("slab_imbalance", mode=root_mode).set(imbalance)


def record_representation(mode: int, name: str, rep: object = None) -> None:
    """A factor-representation decision (Section IV-C dynamic switching)."""
    if not is_enabled():
        return
    reg = active_registry()
    reg.counter("factor_repr_updates", mode=mode, representation=name).inc()
    n_dense = getattr(rep, "n_dense_cols", None)
    if name == "csr-h" and n_dense is not None:
        ncols = rep.shape[1]
        reg.gauge("csrh_dense_col_ratio",
                  mode=mode).set(n_dense / ncols if ncols else 0.0)


def record_admm_report(report, mode: int, blocked: bool) -> None:
    """One inner ADMM solve (blocked or full-matrix) for one mode.

    Blocked reports contribute one histogram observation *per block* —
    the per-block inner-iteration distribution is the paper's
    non-uniform-convergence evidence (Section III-B / IV-B).
    """
    if not is_enabled():
        return
    reg = active_registry()
    hist = reg.histogram("admm_inner_iterations", buckets=ITERATION_BUCKETS,
                         mode=mode)
    block_iters = getattr(report, "block_iterations", None)
    if blocked and block_iters is not None:
        for iters in block_iters:
            hist.observe(iters)
        reg.counter("admm_block_solves", mode=mode).inc(len(block_iters))
    else:
        hist.observe(report.iterations)
    reg.counter("admm_updates", mode=mode).inc()
    reg.gauge("admm_rho", mode=mode).set(report.rho)
    if report.jitter_added:
        reg.counter("cholesky_jitter_events", mode=mode).inc()


def record_slab_event(kind: str, mode: int, nbytes: int,
                      resident_bytes: int, resident_count: int) -> None:
    """One residency-set transition of the out-of-core slab cache.

    ``kind`` is the cache's event vocabulary — ``"load"`` (slab read
    from disk into the residency set), ``"hit"`` (already resident),
    ``"evict"`` (dropped to fit ``max_bytes_in_core``), ``"prefetch"``
    (read issued ahead of consumption through the executor).  The
    gauges track the residency set *after* the transition, so a
    dashboard shows the byte budget actually being honoured.
    """
    if not is_enabled():
        return
    reg = active_registry()
    if kind == "load":
        reg.counter("slab_loads", mode=mode).inc()
        reg.counter("slab_bytes_read", mode=mode).inc(int(nbytes))
    elif kind == "hit":
        reg.counter("slab_hits", mode=mode).inc()
    elif kind == "evict":
        reg.counter("slab_evictions", mode=mode).inc()
    elif kind == "prefetch":
        reg.counter("slab_prefetches", mode=mode).inc()
    reg.gauge("slab_resident_bytes").set(int(resident_bytes))
    reg.gauge("slab_resident_count").set(int(resident_count))


def record_tune_decision(decision) -> None:
    """One per-mode backend selection (a ``ModeDecision``)."""
    if not is_enabled():
        return
    reg = active_registry()
    reg.counter("tune_decisions", mode=decision.mode,
                backend=decision.backend, source=decision.source).inc()
    reg.gauge("tune_slab_nnz_target",
              mode=decision.mode).set(decision.slab_nnz_target)


def record_integrity_event(kind: str, artifact: str = "",
                           nbytes: int = 0) -> None:
    """One storage-integrity event (:mod:`repro.integrity`).

    ``kind`` is the integrity vocabulary — ``"scrub"`` (bytes verified
    against a manifest; ``nbytes`` counts them), ``"mismatch"`` (a
    checksum/size verification failed), ``"quarantine"`` (a corrupt
    artifact was renamed aside as ``.corrupt``), ``"rebuild"`` (a
    quarantined slab was regenerated from its source tensor),
    ``"repair"`` (fsck resolved a finding).  ``artifact`` labels the
    artifact class (``"slab"``, ``"checkpoint"``, ...), so dashboards
    can tell slab bit-rot from checkpoint bit-rot.
    """
    if not is_enabled():
        return
    reg = active_registry()
    if kind == "scrub":
        reg.counter("integrity_bytes_scrubbed", artifact=artifact
                    ).inc(int(nbytes))
    elif kind == "mismatch":
        reg.counter("integrity_mismatches", artifact=artifact).inc()
    elif kind == "quarantine":
        reg.counter("integrity_quarantines", artifact=artifact).inc()
    elif kind == "rebuild":
        reg.counter("integrity_rebuilds", artifact=artifact).inc()
    elif kind == "repair":
        reg.counter("integrity_repairs", artifact=artifact).inc()


def record_iteration(record, scope: str = "aoadmm") -> None:
    """A completed outer iteration (an ``OuterIterationRecord``)."""
    if not is_enabled():
        return
    reg = active_registry()
    reg.counter("outer_iterations", scope=scope).inc()
    reg.histogram("iteration_seconds",
                  scope=scope).observe(record.total_seconds)
    reg.gauge("relative_error", scope=scope).set(record.relative_error)
    for mode, inner in enumerate(record.inner_iterations):
        reg.histogram("inner_iterations_per_mode",
                      buckets=ITERATION_BUCKETS, scope=scope,
                      mode=mode).observe(inner)
    if record.guard_events:
        reg.counter("guard_events", scope=scope).inc(len(record.guard_events))
