"""Options for the AO-ADMM driver.

:class:`AOADMMOptions` is the one configuration object every driver
(`fit_aoadmm`, the baselines, the CLI, ``repro.fit``) accepts.
:func:`options_from_kwargs` is the single translation path from flat
keyword arguments — current field names or historical aliases — to an
options instance, used by both ``repro.fit`` and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

from ..config import (
    ADMM_TOLERANCE,
    DEFAULT_BLOCK_SIZE,
    MAX_ADMM_ITERATIONS,
    MAX_OUTER_ITERATIONS,
    OUTER_TOLERANCE,
    SPARSITY_THRESHOLD,
)
from ..constraints.base import Constraint
from ..constraints.registry import make_constraint
from ..types import SeedLike
from ..validation import require


@dataclass
class AOADMMOptions:
    """Everything configurable about a factorization run.

    Defaults reproduce the paper's experimental setup: non-negative
    factorization, blocked ADMM with 50-row blocks, outer tolerance 1e-6,
    at most 200 outer iterations.

    Attributes
    ----------
    constraints:
        A single spec applied to every mode, or one spec per mode.  Specs
        are constraint names (see
        :func:`repro.constraints.registry.available_constraints`) or
        :class:`~repro.constraints.base.Constraint` instances.
    blocked:
        ``True`` runs the blockwise reformulation (the paper's
        contribution); ``False`` the baseline full-matrix ADMM.
    repr_policy:
        Deep-factor representation during MTTKRP: ``"dense"``, ``"csr"``,
        ``"hybrid"``, or ``"auto"`` (Table II's DENSE / CSR / CSR-H).
    factor_zero_tol:
        Magnitude at or below which a factor entry counts as zero for
        sparsity analysis and compression.
    threads:
        Workers the executor fans work out over: the in-core slab-tiled
        MTTKRP kernels and the chunks of row blocks of blocked ADMM's
        compiled loop.  ``None`` (the default) resolves the
        ``REPRO_NUM_THREADS`` environment variable, falling back to the
        cores this process may run on
        (:func:`~repro.parallel.threadpool.effective_threads`).  Results
        are bit-identical for any value; scalability beyond this host
        is studied on the machine model.  Unblocked ADMM and the NumPy
        blocked loop (constraints without a compiled prox, or no
        compiler) run on the calling thread.
    executor:
        Execution backend, which fans the in-core slab-tiled MTTKRP
        kernels and blocked ADMM's chunks of row blocks out over
        ``threads`` workers and runs the out-of-core slab prefetch and
        checkpoint writes: ``"serial"`` (everything inline), ``"thread"``,
        or an :class:`~repro.parallel.executor.ExecutorBase` instance.
        ``None`` (the default) resolves the ``REPRO_EXECUTOR``
        environment variable, falling back to ``"thread"``.  Results
        are bit-identical across executors (see
        ``docs/parallelism.md``).
    slab_nnz_target:
        Non-zeros per MTTKRP slab for the engine's CSF tilings
        (Section IV-A slice parallelism).  ``None`` (the default) lets
        the backend autotuner choose per mode (see ``tune``); an
        explicit value pins every mode and disables tuning.
    tune:
        MTTKRP slab-plan autotuning mode
        (:mod:`repro.kernels.autotune`): ``"model"`` ranks the
        csf-family slab plans on the analytic cost model, ``"off"``
        keeps the default/explicit slab target.
        ``None`` (the default) resolves the ``REPRO_TUNE`` environment
        variable, falling back to ``"model"``.  Like
        ``threads``/``slab_nnz_target`` this is a performance knob:
        every candidate plan is bit-identical, so results never depend
        on the tune mode.
    max_bytes_in_core:
        Byte budget for the out-of-core slab residency set when the
        tensor is a :class:`~repro.tensor.store.ShardedTensorStore`
        (or a path ``repro.fit`` opens through ``open_tensor``).
        ``None`` defers to the store's own budget / the
        ``REPRO_MAX_BYTES_IN_CORE`` environment variable.  Like
        ``threads``/``slab_nnz_target`` this is a performance knob:
        results are bit-identical for any value, so it does not
        participate in checkpoint compatibility.
    guard_policy:
        Numerical-guard reaction (see :mod:`repro.robustness.guards`):
        ``"raise"`` (default — abort loudly on NaN/Inf/divergence),
        ``"rollback"`` (restore the best iterate and stop), ``"repair"``
        (zero the bad entries and continue), or ``"off"``.
    divergence_patience:
        Consecutive error-rising iterations counted as divergence.
    checkpoint_every:
        Write a resumable checkpoint every this many outer iterations
        (requires ``checkpoint_path``); ``None`` disables checkpointing.
    checkpoint_path:
        ``.npz`` destination for checkpoints (overwritten atomically on
        each write; see :mod:`repro.robustness.checkpoint`).
    checkpoint_keep_last:
        Retain this many versioned checkpoint files
        (``{stem}.itNNNNNNNN.npz`` siblings of ``checkpoint_path``),
        pruning older versions only after the newest has been fsynced.
        ``None`` keeps the legacy single-file overwrite behaviour.
    preempt_flag:
        A ``threading.Event``-like object (anything with ``is_set()``)
        polled between outer iterations.  When set, the driver writes a
        final checkpoint (if checkpointing is configured) and returns
        with ``stop_reason="preempted"``.
        :func:`repro.robustness.preempt_on_signals` yields one that
        SIGTERM/SIGINT set.
    fault_injector:
        A :class:`repro.robustness.faults.FaultInjector` for testing the
        guards; ``None`` (the default) in production runs.
    """

    rank: int = 10
    constraints: object = "nonneg"
    blocked: bool = True
    block_size: int = DEFAULT_BLOCK_SIZE
    inner_tolerance: float = ADMM_TOLERANCE
    max_inner_iterations: int = MAX_ADMM_ITERATIONS
    outer_tolerance: float = OUTER_TOLERANCE
    max_outer_iterations: int = MAX_OUTER_ITERATIONS
    rho_policy: object = "trace"
    repr_policy: str = "dense"
    sparsity_threshold: float = SPARSITY_THRESHOLD
    factor_zero_tol: float = 0.0
    init: str = "uniform"
    seed: SeedLike = None
    threads: int | None = None
    executor: object = None
    slab_nnz_target: int | None = None
    tune: str | None = None
    max_bytes_in_core: int | None = None
    track_block_reports: bool = False
    #: Called after every outer iteration with the fresh
    #: :class:`~repro.core.trace.OuterIterationRecord`; returning a truthy
    #: value stops the factorization (stop_reason "callback").
    callback: object = None
    #: Stop once the accumulated factorization time exceeds this many
    #: seconds (checked between outer iterations; stop_reason "time_budget").
    time_budget_seconds: float | None = None
    guard_policy: str = "raise"
    divergence_patience: int = 3
    checkpoint_every: int | None = None
    checkpoint_path: object = None
    checkpoint_keep_last: int | None = None
    preempt_flag: object = None
    fault_injector: object = None

    def __post_init__(self) -> None:
        require(self.rank >= 1, "rank must be positive")
        require(self.max_outer_iterations >= 1, "need at least one iteration")
        require(self.inner_tolerance > 0.0, "inner tolerance must be positive")
        require(self.outer_tolerance >= 0.0,
                "outer tolerance must be non-negative")
        if self.slab_nnz_target is not None:
            require(self.slab_nnz_target >= 1,
                    "slab_nnz_target must be positive")
        if self.tune is not None:
            from ..kernels.autotune import TUNE_MODES
            require(self.tune in TUNE_MODES,
                    f"unknown tune mode {self.tune!r} "
                    f"(choose from {TUNE_MODES})")
        if self.max_bytes_in_core is not None:
            require(self.max_bytes_in_core >= 1,
                    "max_bytes_in_core must be positive")
        if isinstance(self.executor, str):
            from ..parallel.executor import EXECUTOR_NAMES
            require(self.executor in EXECUTOR_NAMES,
                    f"unknown executor {self.executor!r} "
                    f"(choose from {EXECUTOR_NAMES})")
        if self.time_budget_seconds is not None:
            require(self.time_budget_seconds > 0.0,
                    "time budget must be positive")
        if self.callback is not None:
            require(callable(self.callback), "callback must be callable")
        require(self.guard_policy in ("off", "raise", "rollback", "repair"),
                f"unknown guard policy {self.guard_policy!r}")
        require(self.divergence_patience >= 1,
                "divergence patience must be at least 1")
        if self.checkpoint_every is not None:
            require(self.checkpoint_every >= 1,
                    "checkpoint_every must be positive")
            require(self.checkpoint_path is not None,
                    "checkpoint_every requires checkpoint_path")
        if self.checkpoint_keep_last is not None:
            require(self.checkpoint_keep_last >= 1,
                    "checkpoint_keep_last must be at least 1")
            require(self.checkpoint_path is not None,
                    "checkpoint_keep_last requires checkpoint_path")
        if self.preempt_flag is not None:
            require(callable(getattr(self.preempt_flag, "is_set", None)),
                    "preempt_flag must expose is_set() (Event-like)")

    def resolve_constraints(self, nmodes: int) -> list[Constraint]:
        """Materialize one constraint instance per mode."""
        spec = self.constraints
        if isinstance(spec, (str, Constraint)):
            return [make_constraint(spec) for _ in range(nmodes)]
        specs = list(spec)  # type: ignore[arg-type]
        require(len(specs) == nmodes,
                f"got {len(specs)} constraints for {nmodes} modes")
        return [make_constraint(s) for s in specs]


#: Historical flat-kwarg spellings -> :class:`AOADMMOptions` field.  The
#: right-hand names (the fields themselves) are also accepted verbatim by
#: :func:`options_from_kwargs`, so the table only lists the renames.
LEGACY_KWARGS: dict[str, str] = {
    # sklearn-style spellings from the earliest prototype API.
    "n_components": "rank",
    "random_state": "seed",
    "tol": "outer_tolerance",
    "max_iter": "max_outer_iterations",
    # boolean-soup / abbreviated spellings.
    "constraint": "constraints",
    "use_blocked": "blocked",
    "blocksize": "block_size",
    "inner_tol": "inner_tolerance",
    "max_inner_iter": "max_inner_iterations",
    "n_threads": "threads",
    "representation": "repr_policy",
    "initialization": "init",
}

_FIELD_NAMES = frozenset(f.name for f in fields(AOADMMOptions))


def translate_kwarg(name: str) -> str:
    """Map a flat kwarg (field name or legacy alias) to its options field.

    Raises :class:`ValueError` for names that are neither, listing the
    alias table so callers get an actionable message.
    """
    canonical = LEGACY_KWARGS.get(name, name)
    if canonical not in _FIELD_NAMES:
        known = ", ".join(sorted(LEGACY_KWARGS))
        raise ValueError(
            f"unknown option {name!r}: not an AOADMMOptions field and not "
            f"a recognized legacy alias (aliases: {known})")
    return canonical


def options_from_kwargs(base: AOADMMOptions | None = None,
                        **kwargs: object) -> AOADMMOptions:
    """Build :class:`AOADMMOptions` from flat keyword arguments.

    *base* (default: fresh defaults) supplies every field not mentioned;
    *kwargs* may use current field names or the :data:`LEGACY_KWARGS`
    aliases.  This is the single kwargs->Options translation path —
    ``repro.fit`` and the CLI both go through it.
    """
    translated: dict[str, object] = {}
    for name, value in kwargs.items():
        canonical = translate_kwarg(name)
        require(canonical not in translated,
                f"option {canonical!r} given twice (alias collision)")
        translated[canonical] = value
    return replace(base or AOADMMOptions(), **translated)
