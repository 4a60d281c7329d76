"""Projected-gradient non-negative CPD (Zhang et al. family).

Per-mode update: one gradient step on the mode's quadratic subproblem
followed by projection onto the orthant,

``A_m <- max(A_m - (A_m G - K) / L, 0)``,   ``L = ||G||_2``

with the Lipschitz constant of the subproblem gradient as the step.  A
monotone, cheap baseline whose convergence-per-iteration trails ADMM's.
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


def fit_pgd(tensor: COOTensor,
            options: AOADMMOptions | None = None,
            initial_factors: list[np.ndarray] | None = None,
            engine: MTTKRPEngine | None = None,
            inner_steps: int = 5) -> FactorizationResult:
    """Projected-gradient NNCPD.

    Parameters
    ----------
    inner_steps:
        Gradient/projection steps per mode update (the PGD analogue of
        inner ADMM iterations).
    """
    options = options or AOADMMOptions()
    require(tensor.nnz > 0, "cannot factor an empty tensor")
    require(inner_steps >= 1, "need at least one gradient step")

    setup_start = time.perf_counter()
    if initial_factors is None:
        factors = init_factors(tensor, options.rank, "uniform", options.seed)
    else:
        factors = [np.maximum(np.array(f, dtype=float, copy=True), 0.0)
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
    clock = StageClock(scope="pgd")
    while True:
        clock.reset()
        last_mttkrp: np.ndarray | None = None
        with span("pgd.iteration", iteration=len(trace) + 1):
            for mode in range(nmodes):
                with clock.stage("other"):
                    gram = gram_cache.gram_excluding(mode)

                with clock.stage("mttkrp"):
                    kmat = engine.mttkrp(factors, mode)

                with clock.stage("admm"):
                    # Largest eigenvalue of the SPD Gram = spectral norm.
                    lipschitz = float(np.linalg.eigvalsh(gram)[-1])
                    step = 1.0 / max(lipschitz, 1e-12)
                    a = factors[mode]
                    for _ in range(inner_steps):
                        grad = a @ gram - kmat
                        a = np.maximum(a - step * grad, 0.0)
                    factors[mode] = a

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
            inner_iterations=tuple(inner_steps for _ in range(nmodes)),
            factor_densities=tuple(1.0 for _ in range(nmodes)),
            representations=tuple("dense" for _ in range(nmodes))))
        record_iteration(trace.records[-1], scope="pgd")
        if criterion.update(err):
            converged = criterion.reason == "tolerance"
            break

    return FactorizationResult(model=CPModel([f.copy() for f in factors]),
                               trace=trace, converged=converged,
                               stop_reason=criterion.reason, options=options)
