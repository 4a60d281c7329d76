"""Fault tolerance for long factorization runs.

The paper's Table 1 workloads run for hundreds of outer iterations; a
single non-finite value escaping a kernel, or a crash at iteration 190,
must not cost the whole run.  This package supplies four layers:

* :mod:`repro.robustness.guards` — the :class:`HealthMonitor` numerical
  guards wired into the AO-ADMM driver (NaN/Inf detection, objective
  divergence) with ``raise`` / ``rollback`` / ``repair`` policies;
* :mod:`repro.robustness.checkpoint` — periodic full-state checkpoints
  and bit-identical resume (``fit_aoadmm(..., resume_from=...)``), plus
  the versioned :class:`CheckpointStore` with retention and corrupt-file
  quarantine;
* :mod:`repro.robustness.preemption` — :func:`preempt_on_signals`,
  which turns SIGTERM/SIGINT into the driver's ``preempt_flag`` so a
  fit stops after a final checkpoint and resumes bit-identically;
* :mod:`repro.robustness.faults` — a deterministic fault-injection
  harness used by ``tests/test_robustness.py`` to prove every guard and
  recovery path actually fires.
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
from .preemption import preempt_on_signals
from .faults import (
    STORAGE_FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    InjectedCrash,
    ShardCrashPlan,
    SlabFaultRecord,
    SlabFaultSpec,
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
    "preempt_on_signals",
    "FaultInjector",
    "FaultSpec",
    "InjectedCrash",
    "STORAGE_FAULT_KINDS",
    "ShardCrashPlan",
    "SlabFaultRecord",
    "SlabFaultSpec",
    "inject_slab_fault",
]
