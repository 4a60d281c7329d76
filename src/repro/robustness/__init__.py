"""Fault tolerance for long factorization runs.

The paper's Table 1 workloads run for hundreds of outer iterations; a
single non-finite value escaping a kernel, or a crash at iteration 190,
must not cost the whole run.  This package supplies five layers:

* :mod:`repro.robustness.guards` — the :class:`HealthMonitor` numerical
  guards wired into the AO-ADMM driver (NaN/Inf detection, objective
  divergence) with ``raise`` / ``rollback`` / ``repair`` policies;
* :mod:`repro.robustness.checkpoint` — periodic full-state checkpoints
  and bit-identical resume (``fit_aoadmm(..., resume_from=...)``), plus
  the versioned :class:`CheckpointStore` with retention and corrupt-file
  quarantine;
* :mod:`repro.robustness.retry` — deterministic retry/backoff/deadline
  primitives for transient failures;
* :mod:`repro.robustness.watchdog` — the heartbeat watchdog that detects
  and interrupts stalled fits;
* :mod:`repro.robustness.supervisor` — :class:`FitSupervisor`, which
  composes all of the above (plus a degradation ladder and graceful
  SIGTERM/SIGINT preemption) so a fit completes without caller
  intervention under stalls, corrupted checkpoints and memory
  exhaustion — surfaced as
  ``repro.fit(..., supervise=True)``;
* :mod:`repro.robustness.faults` — a deterministic fault-injection
  harness used by ``tests/test_robustness.py`` and
  ``tests/test_supervisor.py`` to prove every guard and recovery path
  actually fires.
"""

from .guards import (
    GUARD_POLICIES,
    GuardEvent,
    HealthMonitor,
    NumericalFaultError,
)
from .checkpoint import (
    Checkpoint,
    CheckpointStore,
    CheckpointUnavailable,
    load_checkpoint,
    resolve_resume,
    save_checkpoint,
    verify_checkpoint,
)
from .retry import (
    Backoff,
    Deadline,
    RetryBudgetExceeded,
    RetryPolicy,
)
from .watchdog import FitStalled, Watchdog
from .supervisor import (
    DegradationLadder,
    FitSupervisor,
    SupervisorOptions,
    SupervisorReport,
    supervise_fit,
)
from .faults import (
    STORAGE_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    ShardCrashPlan,
    SlabFaultRecord,
    SlabFaultSpec,
    WorkerFault,
    WorkerFaultPlan,
    inject_slab_fault,
)

__all__ = [
    "GUARD_POLICIES",
    "GuardEvent",
    "HealthMonitor",
    "NumericalFaultError",
    "Checkpoint",
    "CheckpointStore",
    "CheckpointUnavailable",
    "load_checkpoint",
    "resolve_resume",
    "save_checkpoint",
    "verify_checkpoint",
    "Backoff",
    "Deadline",
    "RetryBudgetExceeded",
    "RetryPolicy",
    "FitStalled",
    "Watchdog",
    "DegradationLadder",
    "FitSupervisor",
    "SupervisorOptions",
    "SupervisorReport",
    "supervise_fit",
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "STORAGE_FAULT_KINDS",
    "ShardCrashPlan",
    "SlabFaultRecord",
    "SlabFaultSpec",
    "WorkerFault",
    "WorkerFaultPlan",
    "inject_slab_fault",
]
