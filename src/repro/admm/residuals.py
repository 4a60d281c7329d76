"""Relative primal and dual ADMM residuals (Algorithm 1, lines 10-11).

Every squared Frobenius norm here is summed in one defined order, which
the compiled block loop of :mod:`repro.kernels.row_solve` replays byte
for byte: per block, each column's squares are summed sequentially down
the rows (``np.einsum`` or ``np.add.reduce`` over a non-innermost axis
of a C-ordered operand), then the block's column partials are summed
sequentially from the first column (``np.add.reduce`` over the
columns of the transposed partials, or ``np.add.accumulate`` for one
block).  Operands that are not C-ordered are copied to a C-ordered
buffer first, so the bits never depend on the operands' memory order.
"""

from __future__ import annotations

import numpy as np

_TINY = 1e-30


def _column_sums(stacked: np.ndarray) -> np.ndarray:
    """Sequential sums down axis 1 of a C-ordered ``(blocks, rows, F)``.

    ``np.add.reduce`` adds row after row only while the columns form the
    inner loop; a single column would be reduced pairwise instead, so
    that case accumulates.
    """
    if stacked.shape[2] > 1:
        return np.add.reduce(stacked, axis=1)
    return np.add.accumulate(stacked, axis=1)[:, -1]


def _einsum_sums_in_order() -> bool:
    """Whether ``np.einsum("bij,bij->bj", x, x)`` gives the bits of
    :func:`_column_sums` over ``x * x``.

    It iterates like the reduction (columns inner, rows in order) and
    rounds each product and sum on its own unless this NumPy build fuses
    its multiply-add (NEON builds may); a probe over sixteen decades
    tells.  The einsum reads the operand once instead of writing and
    reducing the squares, and runs several times faster.
    """
    rng = np.random.default_rng(0)
    probe = rng.standard_normal((3, 40, 5)) \
        * 10.0 ** rng.uniform(-8.0, 8.0, (3, 40, 5))
    return _einsum_column_sums(probe).tobytes() \
        == _column_sums(probe * probe).tobytes()


def _einsum_column_sums(stacked: np.ndarray) -> np.ndarray:
    """:func:`_column_sums` of ``stacked * stacked`` in one read (where
    :data:`EINSUM_IN_ORDER` says so)."""
    return np.einsum("bij,bij->bj", stacked, stacked)


#: Whether :func:`block_sqnorms` may sum with ``np.einsum``.
EINSUM_IN_ORDER = _einsum_sums_in_order()


def block_sqnorms(matrix: np.ndarray, block_rows: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Squared Frobenius norm of every *block_rows*-row block of *matrix*.

    Blocks are consecutive (only the last may be short; ``block_rows``
    at or above the row count gives one block).  *out* (a writeable
    C-contiguous float64 matrix of *matrix*'s shape, which may be
    *matrix* itself) or a temporary takes the squares, or a C-ordered
    copy of *matrix* for the einsum when *matrix* is not C-ordered.
    """
    rows, rank = matrix.shape
    size = block_rows if 0 < block_rows < rows else max(rows, 1)
    if rows == 0 or rank == 0:
        return np.zeros(max(-(-rows // size), 1))
    if out is None:
        out = np.empty((rows, rank))
    if EINSUM_IN_ORDER and rank > 1:
        if matrix.dtype != np.float64 or not matrix.flags.c_contiguous:
            np.copyto(out, matrix)
            matrix = out
        column_sums = _einsum_column_sums
    else:
        matrix = np.multiply(matrix, matrix, out=out)
        column_sums = _column_sums
    split = rows - rows % size
    partials = column_sums(matrix[:split].reshape(-1, size, rank))
    if split < rows:
        partials = np.concatenate(
            (partials, column_sums(matrix[None, split:])))
    if len(partials) > 1:
        # Sequential down the columns, as _column_sums; with one block
        # that reduce would run over the columns pairwise.
        return np.add.reduce(np.ascontiguousarray(partials.T), axis=0)
    return np.add.accumulate(partials, axis=1)[:, -1]


def block_relative_residual(numerator: np.ndarray, denominator: np.ndarray,
                            block_rows: int,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Per-block ``||numerator_b||_F^2 / ||denominator_b||_F^2``.

    Blocks are consecutive groups of *block_rows* rows (the last may be
    short).  Each entry equals the matching half of
    :func:`relative_residuals` evaluated on that block alone, bit for bit,
    with the same denominator floor.  *out* is scratch as in
    :func:`block_sqnorms` (it may be *numerator*).
    """
    top = block_sqnorms(numerator, block_rows, out)
    return top / np.maximum(block_sqnorms(denominator, block_rows, out),
                            _TINY)


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
    huge and the loop continues.  Differences and squares are written to
    *out* when given (a writeable C-contiguous float64 buffer of the
    operands' shape, which may be *aux*: it is read first), else to one
    temporary.
    """
    if out is None:
        out = np.empty(primal.shape)
    rows = primal.shape[0]
    r = block_relative_residual(np.subtract(primal, aux, out=out), primal,
                                rows, out)
    s = block_relative_residual(np.subtract(primal, primal_prev, out=out),
                                dual, rows, out)
    return float(r[0]), float(s[0])
