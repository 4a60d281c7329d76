"""Relative primal and dual ADMM residuals (Algorithm 1, lines 10-11)."""

from __future__ import annotations

import numpy as np

_TINY = 1e-30

#: Elements ``einsum`` sums in one pass.  It works through longer
#: operands in chunks of this size, so a batched row sum over wider
#: blocks would add in a different order than one call per block.
_EINSUM_CHUNK = 8192


def _sqnorm(matrix: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", matrix, matrix))


def relative_residuals(primal: np.ndarray, aux: np.ndarray,
                       primal_prev: np.ndarray, dual: np.ndarray,
                       out: np.ndarray | None = None) -> tuple[float, float]:
    """Return ``(r, s)``:

    ``r = ||H - H_tilde||_F^2 / ||H||_F^2`` — primal residual (constraint
    violation between the primal and auxiliary copies), and
    ``s = ||H - H_prev||_F^2 / ||U||_F^2`` — dual residual (primal update
    magnitude scaled by the dual).

    Denominators are floored so the first iterations (H or U all zero)
    never divide by zero; in that regime the residuals are intentionally
    huge and the loop continues.  The differences are written to *out*
    when given (a C-contiguous buffer of the operands' shape, which may
    be *aux*), else to temporaries.
    """
    r = _sqnorm(np.subtract(primal, aux, out=out)) \
        / max(_sqnorm(primal), _TINY)
    s = _sqnorm(np.subtract(primal, primal_prev, out=out)) \
        / max(_sqnorm(dual), _TINY)
    return r, s


def _block_sqnorms(stacked: np.ndarray, block_rows: int) -> np.ndarray:
    """``_sqnorm`` of every *block_rows*-row block of *stacked*, bit for bit.

    *stacked* is C-contiguous; only its last block may be short.
    """
    rank = stacked.shape[1]
    n_full = stacked.shape[0] // block_rows
    split = n_full * block_rows
    if block_rows * rank <= _EINSUM_CHUNK:
        flat = stacked[:split].reshape(n_full, block_rows * rank)
        sums = np.einsum("ij,ij->i", flat, flat)
    else:
        sums = np.array([_sqnorm(stacked[i:i + block_rows])
                         for i in range(0, split, block_rows)])
    if split < stacked.shape[0]:
        sums = np.append(sums, _sqnorm(stacked[split:]))
    return sums


def block_relative_residual(numerator: np.ndarray, denominator: np.ndarray,
                            block_rows: int) -> np.ndarray:
    """Per-block ``||numerator_b||_F^2 / ||denominator_b||_F^2``.

    Blocks are consecutive groups of *block_rows* rows (the last may be
    short).  Each entry equals the matching half of
    :func:`relative_residuals` evaluated on that block alone, bit for bit,
    with the same denominator floor.
    """
    return (_block_sqnorms(numerator, block_rows)
            / np.maximum(_block_sqnorms(denominator, block_rows), _TINY))
