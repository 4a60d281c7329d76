"""Full-matrix ADMM for one mode's subproblem (paper Algorithm 1).

Solves

``min_H  1/2 ||X_(m) - H (KR of others)^T||_F^2 + r(H)``

given the precomputed MTTKRP ``K`` and Gram ``G``.  The Cholesky factor of
``G + rho I`` and its inverse are computed once; every inner iteration
then costs one ``O(F^2 I)`` row-independent solve pass (line 6, see
:meth:`~repro.linalg.cholesky.CholeskyFactor.solve_rows`) plus the prox
and residuals — all linear passes over the tall matrices, which is
exactly the memory-bound behaviour the blocked variant attacks.  The
loop reuses two factor-sized work buffers allocated once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ADMM_TOLERANCE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..observability import span
from ..validation import require
from .residuals import relative_residuals
from .rho import RhoPolicy, TraceRho
from .state import AdmmState


@dataclass(frozen=True)
class AdmmReport:
    """Outcome of one inner ADMM solve."""

    iterations: int
    rho: float
    primal_residual: float
    dual_residual: float
    converged: bool
    #: Diagonal jitter the Cholesky of ``G + rho I`` needed (0.0 normally;
    #: positive when an L1-killed rank-deficient Gram had to be repaired).
    jitter_added: float = 0.0


def admm_update(state: AdmmState, mttkrp: np.ndarray, gram: np.ndarray,
                constraint: Constraint,
                rho_policy: RhoPolicy | None = None,
                tolerance: float = ADMM_TOLERANCE,
                max_iterations: int = MAX_ADMM_ITERATIONS) -> AdmmReport:
    """Run Algorithm 1, updating *state* in place.

    Parameters
    ----------
    state:
        Warm-started primal/dual pair for this mode; mutated in place.
    mttkrp:
        ``K = X_(m) (KR of other factors)``, shape ``(I_m, F)``.
    gram:
        ``G = hadamard of other Grams``, shape ``(F, F)``.
    constraint:
        Penalty whose prox implements line 8.
    rho_policy:
        Penalty parameter rule; defaults to the paper's ``trace(G)/F``.
    tolerance:
        Threshold on **both** relative residuals (line 12).
    max_iterations:
        Safety cap on inner iterations.
    """
    require(mttkrp.shape == state.primal.shape,
            "MTTKRP output must match the primal shape")
    rank = state.rank
    require(gram.shape == (rank, rank), "Gram must be F x F")

    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))

    # U is updated in place in the dual; H alternates between the primal
    # and one spare buffer (the prox writes into whichever does not hold
    # the current H); ``work`` holds K + rho (H + U), then H_tilde (solved
    # in place), then the residual differences.
    primal, dual = state.primal, state.dual
    buffers = (primal, np.empty_like(primal))
    work = np.empty_like(primal)
    h, held = primal, 0  # ``held``: which buffer holds H (None: neither)
    iterations = 0
    r = s = float("inf")
    converged = False
    with span("admm.solve", rows=state.rows, solve=chol.rows_backend):
        while iterations < max_iterations:
            iterations += 1
            # Line 6: solve (G + rho I) H_tilde^T = (K + rho (H + U))^T.
            np.add(h, dual, out=work)
            work *= rho
            work += mttkrp
            aux = chol.solve_rows(work, out=work)
            h_prev = h
            spare = 1 if held == 0 else 0
            # Line 8: proximity operator with step 1/rho.
            h = constraint.prox(np.subtract(aux, dual, out=buffers[spare]),
                                1.0 / rho)
            held = spare if h is buffers[spare] else None
            # Line 9: dual ascent.
            dual += h
            dual -= aux
            # Lines 10-11.  A prox that returns a Fortran-ordered H
            # (``smooth``) keeps its temporaries: einsum sums an F-ordered
            # difference in another order than a C-ordered one.
            r, s = relative_residuals(
                h, aux, h_prev, dual,
                out=work if h.flags.c_contiguous else None)
            if r < tolerance and s < tolerance:
                converged = True
                break

    if h is not primal:
        primal[...] = h
    return AdmmReport(iterations=iterations, rho=rho, primal_residual=r,
                      dual_residual=s, converged=converged,
                      jitter_added=chol.jitter_added)
