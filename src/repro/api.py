"""The one-call front door: ``repro.fit``.

``fit`` is a thin façade over the method drivers — it builds the
:class:`~repro.core.options.AOADMMOptions`, dispatches to
:func:`~repro.core.aoadmm.fit_aoadmm` (or a baseline), and packages the
outcome together with an observability snapshot into a
:class:`FitResult`.  It adds **no numerics of its own**: the factors it
returns are bit-identical to calling the underlying driver directly with
the same options (tested).

>>> import repro
>>> from repro.tensor import noisy_lowrank_coo
>>> tensor, _ = noisy_lowrank_coo((30, 25, 20), rank=4, nnz=2000, seed=0)
>>> result = repro.fit(tensor, rank=4, constraints="nonneg", seed=0,
...                    max_outer_iterations=5)
>>> result.stop_reason
'max_iterations'
>>> all((f >= 0).all() for f in result.factors)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core.aoadmm import FactorizationResult, fit_aoadmm
from .core.cpd import CPModel
from .core.options import AOADMMOptions, options_from_kwargs
from .core.trace import FactorizationTrace
from .observability import Observability, empty_snapshot, get_observability
from .types import TensorSource
from .validation import require

#: method name -> driver; every driver shares the
#: ``(tensor, options, initial_factors, engine)`` signature and returns a
#: :class:`FactorizationResult`.
METHODS = ("aoadmm", "als", "mu", "pgd")


def _driver(method: str):
    if method == "aoadmm":
        return fit_aoadmm
    if method == "als":
        from .core.als import fit_als
        return fit_als
    if method == "mu":
        from .baselines.mu_ntf import fit_mu
        return fit_mu
    if method == "pgd":
        from .baselines.pgd_ntf import fit_pgd
        return fit_pgd
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


@dataclass
class FitResult:
    """What ``repro.fit`` returns: model + trace + metrics + diagnostics."""

    model: CPModel
    trace: FactorizationTrace
    #: Metrics snapshot (``MetricsRegistry.snapshot()`` shape) covering the
    #: run; empty when observability was disabled.
    metrics: dict
    stop_reason: str
    converged: bool
    options: AOADMMOptions
    method: str
    #: The underlying driver's result, for anything not surfaced here.
    raw: FactorizationResult

    @property
    def factors(self) -> list[np.ndarray]:
        return self.model.factors

    @property
    def relative_error(self) -> float:
        return self.trace.final_error()

    @property
    def iterations(self) -> int:
        return len(self.trace)


def fit(tensor: "TensorSource | str | Path",
        rank: int | None = None,
        constraints: object | None = None,
        method: str = "aoadmm",
        observe: "bool | Observability | None" = None,
        options: AOADMMOptions | None = None,
        initial_factors: "list[np.ndarray] | None" = None,
        engine: object = None,
        resume_from: object = None,
        **option_kwargs: object) -> FitResult:
    """Factorize *tensor* and return a :class:`FitResult`.

    Parameters
    ----------
    tensor:
        Any :class:`~repro.types.TensorSource` (an in-core
        :class:`~repro.tensor.coo.COOTensor` / CSF tensor, or an
        out-of-core :class:`~repro.tensor.store.ShardedTensorStore`),
        or a **path** — a ``.tns``/``.tns.gz`` file or a sharded store
        directory — opened through
        :func:`~repro.tensor.store.open_tensor` honoring
        ``max_bytes_in_core`` (the option or the
        ``REPRO_MAX_BYTES_IN_CORE`` environment variable).
    rank, constraints:
        The two settings everyone touches, promoted to positional-friendly
        arguments; ``None`` leaves the (given or default) *options* value.
    method:
        ``"aoadmm"`` (the paper's solver), or a baseline: ``"als"``
        (unconstrained), ``"mu"`` (multiplicative updates), ``"pgd"``
        (projected gradient).
    observe:
        * ``None`` — respect the process-wide observability state
          (``REPRO_OBSERVE`` / :func:`repro.observability.configure`);
        * ``True`` — collect metrics for this call in a fresh registry
          (process-wide state untouched afterwards);
        * ``False`` — force metrics off for this call;
        * an :class:`~repro.observability.Observability` — record into it.

        Whatever the source, ``FitResult.metrics`` holds the snapshot.
    options:
        Full configuration object; ``rank`` / ``constraints`` /
        ``**option_kwargs`` are applied on top of it.
    initial_factors, engine, resume_from:
        Forwarded to the driver (``resume_from`` is AO-ADMM only).
    **option_kwargs:
        Any other :class:`AOADMMOptions` field (or legacy alias), e.g.
        ``blocked=False, seed=0, max_outer_iterations=50``, or
        ``executor="serial"`` (``"thread"`` is the default; results are
        bit-identical either way, see ``docs/parallelism.md``).
    """
    require(method in METHODS,
            f"unknown method {method!r}; choose from {METHODS}")
    if rank is not None:
        option_kwargs["rank"] = rank
    if constraints is not None:
        option_kwargs["constraints"] = constraints
    options = options_from_kwargs(base=options, **option_kwargs)

    if isinstance(tensor, (str, Path)):
        from .tensor.store import open_tensor
        tensor = open_tensor(tensor,
                             max_bytes_in_core=options.max_bytes_in_core,
                             slab_nnz_target=options.slab_nnz_target)
    require(isinstance(tensor, TensorSource),
            f"tensor must be a TensorSource or a path, got "
            f"{type(tensor).__name__}")

    driver_kwargs: dict[str, object] = {
        "options": options,
        "initial_factors": initial_factors,
        "engine": engine,
    }
    if resume_from is not None:
        require(method == "aoadmm",
                "resume_from is only supported by method='aoadmm'")
        driver_kwargs["resume_from"] = resume_from
    driver = _driver(method)

    if observe is None:
        result = driver(tensor, **driver_kwargs)
        handle = get_observability()
    else:
        handle = (observe if isinstance(observe, Observability)
                  else Observability(enabled=bool(observe)))
        with handle.activate():
            result = driver(tensor, **driver_kwargs)
    metrics = handle.snapshot() if handle.enabled else empty_snapshot()

    return FitResult(model=result.model, trace=result.trace,
                     metrics=metrics, stop_reason=result.stop_reason,
                     converged=result.converged, options=result.options,
                     method=method, raw=result)
