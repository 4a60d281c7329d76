"""Unconstrained alternating least squares (ALS) baseline.

AO with no constraint degenerates to classic CP-ALS (paper Section II-C):
each mode update is the exact normal-equations solve
``A_m = K (G)^-1`` — no inner iterations, no duals.  Used as the
reference point for the overhead constrained factorization adds.
"""

from __future__ import annotations

import time

import numpy as np

from ..kernels.dispatch import MTTKRPEngine
from ..linalg.cholesky import CholeskyFactor
from ..linalg.grams import GramCache
from ..observability import StageClock, record_iteration, span
from ..tensor.coo import COOTensor
from ..validation import require
from .convergence import ConvergenceCriterion
from .cpd import CPModel
from .init import init_factors
from .options import AOADMMOptions
from .trace import FactorizationTrace, OuterIterationRecord
from .aoadmm import FactorizationResult, make_fit_engine


def fit_als(tensor: COOTensor,
            options: AOADMMOptions | None = None,
            initial_factors: list[np.ndarray] | None = None,
            engine: MTTKRPEngine | None = None) -> FactorizationResult:
    """Unconstrained CP-ALS with the same tracing as :func:`fit_aoadmm`.

    ``options.constraints`` is ignored (ALS is the unconstrained limit);
    everything else — rank, tolerances, init — behaves identically.
    """
    options = options or AOADMMOptions()
    require(tensor.nmodes >= 2, "factorization needs at least two modes")
    require(tensor.nnz > 0, "cannot factor an empty tensor")

    setup_start = time.perf_counter()
    if initial_factors is None:
        factors = init_factors(tensor, options.rank, options.init,
                               options.seed)
    else:
        factors = [np.array(f, dtype=float, copy=True)
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
    clock = StageClock(scope="als")
    while True:
        clock.reset()
        last_mttkrp: np.ndarray | None = None

        with span("als.iteration", iteration=len(trace) + 1):
            for mode in range(nmodes):
                with clock.stage("other"):
                    gram = gram_cache.gram_excluding(mode)

                with clock.stage("mttkrp"):
                    kmat = engine.mttkrp(factors, mode)

                with clock.stage("admm"):
                    factors[mode] = CholeskyFactor(gram).solve_t(kmat)

                with clock.stage("other"):
                    gram_cache.set_factor(mode, factors[mode])
                last_mttkrp = kmat

            with clock.stage("other"):
                assert last_mttkrp is not None
                inner = float(np.einsum("ij,ij->", last_mttkrp,
                                        factors[nmodes - 1]))
                model_sq = max(float(gram_cache.gram_all().sum()), 0.0)
                err_sq = max(norm_x_sq - 2.0 * inner + model_sq, 0.0)
                relative_error = float(np.sqrt(err_sq / norm_x_sq))

        trace.append(OuterIterationRecord.from_stages(
            clock,
            iteration=len(trace) + 1,
            relative_error=relative_error,
            inner_iterations=tuple(1 for _ in range(nmodes)),
            factor_densities=tuple(1.0 for _ in range(nmodes)),
            representations=tuple("dense" for _ in range(nmodes)),
        ))
        record_iteration(trace.records[-1], scope="als")
        if criterion.update(relative_error):
            converged = criterion.reason == "tolerance"
            break

    model = CPModel([f.copy() for f in factors])
    return FactorizationResult(model=model, trace=trace, converged=converged,
                               stop_reason=criterion.reason, options=options)
