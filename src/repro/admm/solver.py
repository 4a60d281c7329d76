"""Full-matrix ADMM for one mode's subproblem (paper Algorithm 1).

Solves

``min_H  1/2 ||X_(m) - H (KR of others)^T||_F^2 + r(H)``

given the precomputed MTTKRP ``K`` and Gram ``G``.  The Cholesky factor of
``G + rho I`` and its inverse are computed once; every inner iteration
then costs one ``O(F^2 I)`` row-independent solve pass (line 6, see
:meth:`~repro.linalg.cholesky.CholeskyFactor.solve_rows`) plus the prox
and residuals — all linear passes over the tall matrices, which is
exactly the memory-bound behaviour the blocked variant attacks.  The
whole solve is the block loop with one block of every row: compiled
(:meth:`repro.kernels.row_solve.RowSolver.admm_blocks`) for the proxes
it implements, :func:`repro.admm.blocked.numpy_block_loop` for every
other constraint, which reuses two factor-sized work buffers allocated
once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ADMM_TOLERANCE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..observability import span
from ..types import VALUE_DTYPE
from ..validation import require
from .blocked import native_loop, numpy_block_loop
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
    fused = native_loop(state, constraint, rho)
    # Algorithm 1 is the block loop with one block of every row.
    with span("admm.solve", rows=state.rows, solve=chol.rows_backend,
              loop="numpy" if fused is None else "native"):
        if fused is None:
            its, done, res = numpy_block_loop(
                state.primal, state.dual, mttkrp,
                lambda x: chol.solve_rows(x, out=x), rho, constraint,
                tolerance, max_iterations, None)
        else:
            solver, prox = fused
            its, done, res = solver.admm_blocks(
                state.primal, state.dual,
                np.ascontiguousarray(mttkrp, dtype=VALUE_DTYPE),
                chol.inverse(), rho, prox, tolerance, max_iterations,
                state.rows)
    return AdmmReport(iterations=int(its[0]), rho=rho,
                      primal_residual=float(res[0, 0]),
                      dual_residual=float(res[0, 1]),
                      converged=bool(done[0]), jitter_added=chol.jitter_added)
