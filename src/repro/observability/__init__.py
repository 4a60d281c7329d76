"""Unified observability: metrics, tracing, and profiling hooks.

The single telemetry spine of the reproduction.  Every signal the paper's
evaluation is built from — per-kernel MTTKRP timings, ADMM
inner-iteration counts per block, sparsity fractions behind the CSR/CSR-H
switch (Smith et al., ICPP 2017, §IV-V) — flows through one process-wide
:class:`MetricsRegistry`, is timed with :func:`span` context managers,
and is exported as JSON-lines, a human report table, or Prometheus text.

Usage::

    import repro.observability as obs

    handle = obs.configure(enabled=True)   # or REPRO_OBSERVE=1 in the env
    result = repro.fit(tensor, rank=16)    # hot paths record themselves
    print(handle.report())                 # human table
    handle.export_jsonl("metrics.jsonl")   # lossless snapshot
    handle.reset()                         # explicit reset semantics

Observability is **disabled by default** and the disabled fast path is
near-zero overhead (no-op instruments, a shared no-op span) — bounded by
``benchmarks/bench_observability_overhead.py`` in CI.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from .export import prometheus_text, read_jsonl, report, write_jsonl
from .hooks import (
    mttkrp_flops_bytes,
    record_admm_report,
    record_cache_event,
    record_integrity_event,
    record_iteration,
    record_kernel_fallback,
    record_mttkrp_call,
    record_representation,
    record_slab_event,
    record_tiling,
    record_tune_decision,
    roofline_seconds,
)
from .registry import (
    ITERATION_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
    empty_snapshot,
    render_key,
)
from .state import ENV_VAR, active_registry, is_enabled, set_active_registry
from .tracing import StageClock, Stopwatch, current_span_path, span


class Observability:
    """A handle bundling one registry with its exporters.

    The process-wide handle is reached through :func:`get_observability`
    / :func:`configure`; independent instances can be created for
    isolated measurement (tests do this) and made active with
    :meth:`activate`.
    """

    def __init__(self, enabled: bool = True,
                 registry: MetricsRegistry | None = None):
        self.registry = (registry if registry is not None
                         else MetricsRegistry(enabled=enabled))

    # -- state ----------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self.registry.enabled

    def enable(self) -> "Observability":
        self.registry.enabled = True
        return self

    def disable(self) -> "Observability":
        self.registry.enabled = False
        return self

    @contextmanager
    def activate(self):
        """Make this handle's registry the active one within the block."""
        previous = set_active_registry(self.registry)
        try:
            yield self
        finally:
            set_active_registry(previous)

    # -- snapshot / reset ----------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def reset(self) -> None:
        self.registry.reset()

    # -- exporters ------------------------------------------------------
    def report(self, title: str = "observability report") -> str:
        return report(self.snapshot(), title=title)

    def export_jsonl(self, path: "str | Path") -> Path:
        return write_jsonl(self.snapshot(), path)

    def prometheus_text(self) -> str:
        return prometheus_text(self.snapshot())


#: The process-wide handle, wrapping the registry instrumented code uses.
_PROCESS = Observability(registry=active_registry())


def get_observability() -> Observability:
    """The process-wide observability handle."""
    _PROCESS.registry = active_registry()
    return _PROCESS


def configure(enabled: bool | None = None) -> Observability:
    """Configure (and return) the process-wide handle.

    ``configure(enabled=True)`` switches recording on,
    ``configure(enabled=False)`` back to the no-op fast path;
    ``configure()`` just returns the handle.
    """
    handle = get_observability()
    if enabled is not None:
        handle.registry.enabled = bool(enabled)
    return handle


__all__ = [
    "Observability",
    "MetricsRegistry",
    "configure",
    "get_observability",
    "active_registry",
    "set_active_registry",
    "is_enabled",
    "span",
    "current_span_path",
    "StageClock",
    "Stopwatch",
    "report",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "empty_snapshot",
    "render_key",
    "record_mttkrp_call",
    "record_cache_event",
    "record_integrity_event",
    "record_tiling",
    "record_representation",
    "record_admm_report",
    "record_iteration",
    "record_kernel_fallback",
    "record_slab_event",
    "record_tune_decision",
    "mttkrp_flops_bytes",
    "roofline_seconds",
    "SECONDS_BUCKETS",
    "ITERATION_BUCKETS",
    "ENV_VAR",
]
