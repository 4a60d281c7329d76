"""Brute-force reference implementations ("oracles") for differential tests.

Every oracle here trades efficiency for *transparency*: each one computes
its quantity by the textbook definition — full Khatri-Rao products, dense
reconstructions, zeroth/first-order optimality checks, KKT residuals —
with no shared code paths into the production kernels it certifies.  The
differential runner (:mod:`repro.testing.differential`) compares every
backend against these, so an oracle must be obviously correct rather than
fast; all of them are restricted to the small strategy-generated inputs
of :mod:`repro.testing.strategies`.

Covered claims:

* MTTKRP via the full matricized product (paper Algorithm 3's defining
  identity ``K = X_(n) kr(...)``) — the reference for every kernel path;
* CPD reconstruction error by explicit dense subtraction — the reference
  for the norm-expansion identity used in the drivers;
* proximity operators against their variational definition (objective
  domination over feasible candidates plus one-sided finite differences);
* ADMM KKT residuals — the convergence *certificate* for blocked and
  unblocked inner solves (paper Section III-B: both must reach the same
  subproblem optimum);
* blocked ADMM as the literal per-block loop of Algorithm 1 — the
  bitwise reference for the fused compiled block loop and the batched
  NumPy active set;
* CSF construction by an ``N``-key ``np.lexsort`` over the coordinate
  rows and a per-mode prefix scan — the bitwise reference for the
  packed-key construction of :meth:`repro.tensor.csf.CSFTensor.from_coo`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..admm.blocked import BlockedAdmmReport
from ..admm.residuals import relative_residuals
from ..admm.rho import RhoPolicy, TraceRho
from ..admm.state import AdmmState
from ..config import ADMM_TOLERANCE, DEFAULT_BLOCK_SIZE, MAX_ADMM_ITERATIONS
from ..constraints.base import Constraint
from ..linalg.cholesky import CholeskyFactor
from ..linalg.khatri_rao import khatri_rao_excluding
from ..parallel.partition import row_blocks
from ..tensor.coo import COOTensor
from ..tensor.csf import CSFTensor
from ..tensor.matricize import matricize_coo
from ..types import INDEX_DTYPE, VALUE_DTYPE, FactorList
from ..validation import check_mode, require

#: Largest ``prod(other extents)`` the dense oracles will materialize.
#: Strategy tensors stay far below this; the guard catches accidental use
#: on real datasets (where the oracle would silently allocate gigabytes).
ORACLE_DENSE_LIMIT = 2_000_000

_TINY = 1e-30


def _dense_guard(n_elements: int) -> None:
    require(n_elements <= ORACLE_DENSE_LIMIT,
            f"oracle would materialize {n_elements} dense elements "
            f"(limit {ORACLE_DENSE_LIMIT}); oracles are for small "
            "strategy-generated inputs only")


def mttkrp_oracle(tensor: COOTensor, factors: FactorList,
                  mode: int) -> np.ndarray:
    """MTTKRP by the defining identity ``K = X_(mode) @ kr(others)``.

    Materializes the *full* Khatri-Rao product of the non-target factors
    (every row, not just the gathered ones), multiplies it by the sparse
    unfolding, and never touches any production kernel code path beyond
    the unfolding itself.
    """
    mode = check_mode(mode, tensor.nmodes)
    rank = int(np.asarray(factors[0]).shape[1])
    ncols = 1
    for m in range(tensor.nmodes):
        if m != mode:
            ncols *= tensor.shape[m]
    _dense_guard(ncols * rank)
    unfolding = matricize_coo(tensor, mode)
    kr = khatri_rao_excluding(factors, mode)
    return np.asarray(unfolding @ kr)


def dense_reconstruction(factors: FactorList) -> np.ndarray:
    """Dense CP reconstruction ``sum_f outer(a_f, b_f, c_f, ...)``."""
    factors = [np.asarray(f, dtype=float) for f in factors]
    shape = tuple(f.shape[0] for f in factors)
    rank = factors[0].shape[1]
    n_elements = 1
    for extent in shape:
        n_elements *= extent
    _dense_guard(n_elements)
    out = np.zeros(shape)
    for f in range(rank):
        component = factors[0][:, f]
        for factor in factors[1:]:
            component = np.multiply.outer(component, factor[:, f])
        out += component
    return out


def relative_error_oracle(tensor: COOTensor, factors: FactorList) -> float:
    """``||X - X_hat||_F / ||X||_F`` by explicit dense subtraction.

    The drivers compute this through the norm-expansion identity
    (``||X||^2 - 2<X, X_hat> + ||X_hat||^2``) without reconstruction;
    this oracle certifies that identity on small inputs.
    """
    dense_x = tensor.to_dense()
    dense_model = dense_reconstruction(factors)
    norm_x = float(np.linalg.norm(dense_x))
    require(norm_x > 0.0, "tensor norm is zero")
    return float(np.linalg.norm(dense_x - dense_model) / norm_x)


# ----------------------------------------------------------------------
# Proximity-operator oracle
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ProxCheck:
    """Outcome of :func:`check_prox` on one ``(constraint, input)`` pair.

    ``worst_violation`` is the largest amount by which any candidate beat
    the prox output's objective (negative/zero = the prox won everywhere);
    ``worst_derivative`` is the most negative one-sided directional
    derivative observed at the prox output (≈0 or positive at an optimum).
    """

    constraint: str
    feasible: bool
    worst_violation: float
    worst_derivative: float

    def ok(self, tol: float = 1e-8) -> bool:
        return (self.feasible and self.worst_violation <= tol
                and self.worst_derivative >= -tol)


def _prox_objective(constraint: Constraint, candidate: np.ndarray,
                    v: np.ndarray, step: float) -> float:
    """``r(H) + 1/(2 step) ||H - V||_F^2`` — the prox's defining objective."""
    penalty = constraint.penalty(candidate)
    if not np.isfinite(penalty):
        return float("inf")
    diff = candidate - v
    return penalty + float(np.einsum("ij,ij->", diff, diff)) / (2.0 * step)


def check_prox(constraint: Constraint, matrix: np.ndarray, step: float,
               rng: np.random.Generator, trials: int = 24) -> ProxCheck:
    """Certify ``prox_{r, step}(matrix)`` against the variational definition.

    Three independent checks, none of which trust the prox being tested:

    1. *feasibility* — the output must have finite penalty (indicator
       constraints: the projection lands in the set);
    2. *objective domination* — no candidate (local perturbations at
       several scales, plus feasibility-verified projections of random
       points) achieves a lower prox objective;
    3. *finite differences* — the one-sided directional derivative of the
       prox objective at the output is non-negative along chords toward
       other verifiably feasible points (the variational inequality).
       Chord directions, not random ones: a convex combination of two
       feasible points is feasible *exactly*, so the check never depends
       on the tolerance slack some indicator penalties allow near their
       boundary (a random direction off e.g. the simplex stays "feasible"
       within that slack while the smooth term decreases, which would
       flag a correct projection).  Steps that still land outside a
       (nonconvex) set carry no information and are skipped.
    """
    require(step > 0.0, "prox step must be positive")
    v = np.array(matrix, dtype=float, copy=True)
    prox_out = np.asarray(constraint.prox(v.copy(), step), dtype=float)
    best = _prox_objective(constraint, prox_out, v, step)
    feasible = np.isfinite(constraint.penalty(prox_out))

    worst_violation = -np.inf
    scale = max(float(np.max(np.abs(v))), 1.0)
    for trial in range(trials):
        if trial % 2 == 0:
            # Local perturbation at a trial-dependent scale.
            eps = scale * 10.0 ** (-(trial % 8) / 2.0 - 1.0)
            candidate = prox_out + eps * rng.standard_normal(prox_out.shape)
            # For indicator constraints the perturbed point is usually
            # infeasible (objective inf) — re-project it through the
            # constraint and keep it only if *verifiably* feasible.
            if not np.isfinite(constraint.penalty(candidate)):
                candidate = np.asarray(
                    constraint.prox(candidate.copy(), step), dtype=float)
                if not np.isfinite(constraint.penalty(candidate)):
                    continue
        else:
            # A far-away feasible point: projection of an unrelated draw.
            candidate = np.asarray(constraint.prox(
                scale * rng.standard_normal(prox_out.shape), step),
                dtype=float)
            if not np.isfinite(constraint.penalty(candidate)):
                continue
        violation = best - _prox_objective(constraint, candidate, v, step)
        worst_violation = max(worst_violation, violation)

    worst_derivative = np.inf
    h = 1e-6 * scale
    for _ in range(8):
        target = np.asarray(constraint.prox(
            scale * rng.standard_normal(prox_out.shape), step), dtype=float)
        if not np.isfinite(constraint.penalty(target)):
            continue
        chord = target - prox_out
        length = float(np.linalg.norm(chord))
        if length < _TINY:
            continue
        t = min(h / length, 1.0)
        ahead = _prox_objective(constraint, prox_out + t * chord, v, step)
        if not np.isfinite(ahead):
            continue  # nonconvex set: the chord left it, no information
        worst_derivative = min(worst_derivative, (ahead - best) / (t * length))
    if not np.isfinite(worst_derivative):
        worst_derivative = 0.0
    if not np.isfinite(worst_violation):
        worst_violation = 0.0

    return ProxCheck(constraint=constraint.name, feasible=bool(feasible),
                     worst_violation=float(worst_violation),
                     worst_derivative=float(worst_derivative))


# ----------------------------------------------------------------------
# ADMM KKT certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KKTCertificate:
    """KKT residuals of one mode subproblem at an ADMM iterate.

    For ``min_H 1/2 tr(H G H^T) - <K, H> + r(H)`` an exact solution
    satisfies ``0 ∈ H G - K + ∂r(H)``.  An ADMM fixed point certifies
    this through three residuals, each ~0 at convergence:

    * ``primal_feasibility`` — ``||H - H_tilde||`` after re-solving the
      least-squares step from ``(H, U)`` (the two ADMM copies agree);
    * ``stationarity`` — ``||H G - K - rho U||`` (the scaled dual equals
      the smooth gradient, i.e. ``-rho U`` plays the subgradient);
    * ``subgradient`` — ``||H - prox(H - U, 1/rho)||`` (the prox
      fixed-point identity certifying ``-rho U ∈ ∂r(H)``).

    All residuals are relative (Frobenius, floored denominators).
    """

    primal_feasibility: float
    stationarity: float
    subgradient: float
    rho: float

    @property
    def max_residual(self) -> float:
        return max(self.primal_feasibility, self.stationarity,
                   self.subgradient)

    def satisfied(self, tol: float) -> bool:
        return self.max_residual <= tol


def _rel(num: np.ndarray, den: np.ndarray) -> float:
    return float(np.linalg.norm(num)
                 / max(float(np.linalg.norm(den)), _TINY))


def kkt_certificate(state: AdmmState, mttkrp: np.ndarray, gram: np.ndarray,
                    constraint: Constraint,
                    rho: float | None = None) -> KKTCertificate:
    """Certify one converged ADMM state against the subproblem's KKT system.

    ``mttkrp`` and ``gram`` should come from the oracles (or be otherwise
    trusted) — the certificate is only as strong as its inputs.  ``rho``
    defaults to the paper's ``trace(G)/F`` rule, matching the solvers.
    """
    primal, dual = state.primal, state.dual
    require(mttkrp.shape == primal.shape,
            "MTTKRP output must match the primal shape")
    rank = primal.shape[1]
    require(gram.shape == (rank, rank), "Gram must be F x F")
    if rho is None:
        rho = TraceRho().rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(rank))
    aux = chol.solve_rows(mttkrp + rho * (primal + dual))
    reproxed = np.asarray(constraint.prox((primal - dual).copy(), 1.0 / rho))
    return KKTCertificate(
        primal_feasibility=_rel(primal - aux, primal),
        stationarity=_rel(primal @ gram - mttkrp - rho * dual, mttkrp),
        subgradient=_rel(primal - reproxed, primal),
        rho=float(rho))


# ----------------------------------------------------------------------
# Blocked ADMM, one block at a time
# ----------------------------------------------------------------------

def per_block_admm_reference(state: AdmmState, mttkrp: np.ndarray,
                             gram: np.ndarray, constraint: Constraint,
                             rho_policy: RhoPolicy | None = None,
                             tolerance: float = ADMM_TOLERANCE,
                             max_iterations: int = MAX_ADMM_ITERATIONS,
                             block_size: int = DEFAULT_BLOCK_SIZE
                             ) -> BlockedAdmmReport:
    """Blocked ADMM (Section IV-B) as a plain loop over row blocks.

    Runs Algorithm 1 on each block in turn until that block's own
    residuals meet *tolerance*, updating *state* in place.
    :func:`repro.admm.blocked.blocked_admm_update` (the fused compiled
    loop, or the NumPy active set that batches the same per-row
    operations over all running blocks) must match this byte for byte,
    report included.
    """
    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(state.rank))
    iterations: list[int] = []
    rows: list[int] = []
    all_converged = True
    for block in row_blocks(state.rows, block_size):
        h = state.primal[block].copy()
        u = state.dual[block].copy()
        k = mttkrp[block]
        count = 0
        converged = False
        while count < max_iterations:
            count += 1
            aux = chol.solve_rows(k + rho * (h + u))
            h_prev = h
            h = constraint.prox(aux - u, 1.0 / rho)
            u = u + h - aux
            r, s = relative_residuals(h, aux, h_prev, u)
            if r < tolerance and s < tolerance:
                converged = True
                break
        state.primal[block] = h
        state.dual[block] = u
        iterations.append(count)
        rows.append(block.stop - block.start)
        all_converged &= converged
    return BlockedAdmmReport(block_iterations=tuple(iterations),
                             block_rows=tuple(rows), rho=rho,
                             converged=all_converged,
                             jitter_added=chol.jitter_added)


# ----------------------------------------------------------------------
# CSF construction by a lexsort over the coordinate rows
# ----------------------------------------------------------------------

def lexsort_csf_reference(tensor: COOTensor,
                          mode_order: tuple[int, ...] | None = None
                          ) -> CSFTensor:
    """Build a CSF tree by sorting on every coordinate row (Figure 2).

    Sorts with ``np.lexsort`` over the ``N`` coordinate rows, gathers
    every row, and marks the start of each length-``l`` prefix with one
    comparison per mode.  :meth:`CSFTensor.from_coo` sorts packed keys
    instead and must match this byte for byte, duplicate coordinates
    included.
    """
    nmodes = tensor.nmodes
    order = tuple(range(nmodes)) if mode_order is None else tuple(mode_order)
    require(sorted(order) == list(range(nmodes)),
            "mode_order must be a permutation of all modes")
    # np.lexsort sorts by the LAST key first, so feed keys reversed.
    perm = np.lexsort(tuple(tensor.coords[m] for m in reversed(order)))
    coords, vals = tensor.coords[:, perm], tensor.vals[perm]
    nnz = vals.shape[0]
    if nnz == 0:
        return CSFTensor(
            tensor.shape, order,
            [np.empty(0, dtype=INDEX_DTYPE) for _ in range(nmodes)],
            [np.zeros(1, dtype=INDEX_DTYPE) for _ in range(nmodes - 1)],
            np.empty(0, dtype=VALUE_DTYPE))
    fids: list[np.ndarray] = []
    starts_per_level: list[np.ndarray] = []
    changed = np.zeros(nnz, dtype=bool)
    changed[0] = True
    for level, mode in enumerate(order):
        if level < nmodes - 1:
            changed[1:] |= coords[mode, 1:] != coords[mode, :-1]
            starts = np.flatnonzero(changed).astype(INDEX_DTYPE)
        else:
            starts = np.arange(nnz, dtype=INDEX_DTYPE)
        starts_per_level.append(starts)
        fids.append(coords[mode, starts])
    fptr = [np.searchsorted(starts_per_level[level + 1],
                            np.append(starts_per_level[level], nnz)
                            ).astype(INDEX_DTYPE)
            for level in range(nmodes - 1)]
    return CSFTensor(tensor.shape, order, fids, fptr, vals)
