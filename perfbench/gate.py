"""Per-fit correctness gate.

The relative error is recomputed from the returned factors with the
COO kernel, a different code path from the CSF/streaming kernels the
fit ran on, through the identity

    ||X - [[A_1 ... A_N]]||^2 = ||X||^2 - 2 <MTTKRP_N(X), A_N> + sum(*_n A_n^T A_n)

and must match the fit's own figure.  Every factor must be finite and
non-negative (all workloads are non-negativity constrained), and the
error must be at most the workload's target and below 1, so a fit that
collapsed to the zero model fails.
"""

from __future__ import annotations

import numpy as np

#: Relative agreement required between the recomputed and reported error.
ERROR_RTOL = 1e-8


def recomputed_error(tensor, factors) -> float:
    from repro.kernels.dispatch import mttkrp

    last = len(factors) - 1
    kmat = mttkrp(tensor, factors, last, method="coo")
    inner = float(np.einsum("ij,ij->", kmat, factors[last]))
    grams = np.ones((factors[0].shape[1],) * 2)
    for f in factors:
        grams *= f.T @ f
    norm_sq = tensor.norm_squared()
    return float(np.sqrt(max(norm_sq - 2.0 * inner + grams.sum(), 0.0)
                         / norm_sq))


def check_fit(tensor, result, target: float) -> tuple[float, list[str]]:
    """Recomputed error of *result* and every gate it fails."""
    problems = []
    factors = result.factors
    if not all(np.isfinite(f).all() for f in factors):
        problems.append("a factor has a non-finite entry")
    elif not all((f >= 0).all() for f in factors):
        problems.append("a factor has a negative entry")
    error = recomputed_error(tensor, factors)
    reported = result.relative_error
    if not abs(error - reported) <= ERROR_RTOL * abs(reported):
        problems.append(f"recomputed error {error!r} differs from the "
                        f"reported {reported!r}")
    if not error <= target:
        problems.append(f"error {error:.6f} missed the target {target} "
                        f"within {result.iterations} iterations "
                        f"(stop reason {result.stop_reason!r})")
    if not error < 1.0:
        problems.append(f"error {error:.6f} is not below 1 (zero model)")
    return error, problems


def check_resume(checkpoint_path, iterations: int) -> list[str]:
    """The newest checkpoint must hold the fit's final iteration."""
    from repro.robustness.checkpoint import resolve_resume

    checkpoint = resolve_resume(checkpoint_path)
    if checkpoint.iteration != iterations:
        return [f"resume loads iteration {checkpoint.iteration}, the fit "
                f"ended at {iterations}"]
    return []
