"""Multiplicative-update non-negative CPD.

The tensor generalization of Lee & Seung's NMF updates:

``A_m <- A_m * K / (A_m G + eps)``

with ``K`` the mode's MTTKRP and ``G`` the Hadamard product of the other
Grams.  Monotone under non-negative data, no step size, but known to crawl
near the optimum — the behaviour AO-ADMM improves on.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.aoadmm import FactorizationResult, make_fit_engine
from ..core.convergence import ConvergenceCriterion
from ..core.cpd import CPModel
from ..core.init import init_factors
from ..core.options import AOADMMOptions
from ..core.trace import FactorizationTrace, OuterIterationRecord
from ..kernels.dispatch import MTTKRPEngine
from ..linalg.grams import GramCache
from ..observability import StageClock, record_iteration, span
from ..tensor.coo import COOTensor
from ..validation import require

_EPS = 1e-12


def fit_mu(tensor: COOTensor,
           options: AOADMMOptions | None = None,
           initial_factors: list[np.ndarray] | None = None,
           engine: MTTKRPEngine | None = None) -> FactorizationResult:
    """Multiplicative-update NNCPD with AO-ADMM-compatible tracing.

    Requires a non-negative tensor (the update rule assumes ``K >= 0``).
    """
    options = options or AOADMMOptions()
    require(tensor.nnz > 0, "cannot factor an empty tensor")
    require(float(tensor.vals.min()) >= 0.0,
            "multiplicative updates require a non-negative tensor")

    setup_start = time.perf_counter()
    if initial_factors is None:
        factors = init_factors(tensor, options.rank, "uniform", options.seed)
    else:
        factors = [np.abs(np.array(f, dtype=float, copy=True))
                   for f in initial_factors]
    if engine is None:
        engine = make_fit_engine(tensor, options)

    gram_cache = GramCache(factors)
    norm_x_sq = tensor.norm_squared()
    criterion = ConvergenceCriterion(options.outer_tolerance,
                                     options.max_outer_iterations)
    trace = FactorizationTrace()
    trace.setup_seconds = time.perf_counter() - setup_start

    nmodes = tensor.nmodes
    converged = False
    clock = StageClock(scope="mu")
    while True:
        clock.reset()
        last_mttkrp: np.ndarray | None = None
        with span("mu.iteration", iteration=len(trace) + 1):
            for mode in range(nmodes):
                with clock.stage("other"):
                    gram = gram_cache.gram_excluding(mode)

                with clock.stage("mttkrp"):
                    kmat = engine.mttkrp(factors, mode)

                with clock.stage("admm"):
                    denom = factors[mode] @ gram
                    np.maximum(denom, _EPS, out=denom)
                    factors[mode] = (factors[mode]
                                     * np.maximum(kmat, 0.0) / denom)

                with clock.stage("other"):
                    gram_cache.set_factor(mode, factors[mode])
                last_mttkrp = kmat

            with clock.stage("other"):
                assert last_mttkrp is not None
                inner = float(np.einsum("ij,ij->", last_mttkrp,
                                        factors[nmodes - 1]))
                model_sq = max(float(gram_cache.gram_all().sum()), 0.0)
                err = float(np.sqrt(max(norm_x_sq - 2 * inner + model_sq, 0.0)
                                    / norm_x_sq))

        trace.append(OuterIterationRecord.from_stages(
            clock,
            iteration=len(trace) + 1, relative_error=err,
            inner_iterations=tuple(1 for _ in range(nmodes)),
            factor_densities=tuple(1.0 for _ in range(nmodes)),
            representations=tuple("dense" for _ in range(nmodes))))
        record_iteration(trace.records[-1], scope="mu")
        if criterion.update(err):
            converged = criterion.reason == "tolerance"
            break

    return FactorizationResult(model=CPModel([f.copy() for f in factors]),
                               trace=trace, converged=converged,
                               stop_reason=criterion.reason, options=options)
