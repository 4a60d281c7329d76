"""Cholesky factorization and SPD solves.

Plays the role of MKL's ``potrf`` + ``trsm`` in the paper's Algorithm 1:
``L = Cholesky(G + rho * I)`` is computed once per mode update.  The
inner ADMM iterations (line 6) multiply every row by the inverse formed
once from it (:meth:`CholeskyFactor.solve_rows`, the row-independent
solve of :mod:`repro.kernels.row_solve`); ALS, which has no ``rho``
shift, keeps the LAPACK substitution (:meth:`CholeskyFactor.solve_t`).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..types import VALUE_DTYPE
from ..validation import require


class CholeskyFactor:
    """A cached Cholesky factorization of an SPD matrix.

    Parameters
    ----------
    matrix:
        Symmetric positive (semi-)definite ``F x F`` matrix.
    jitter:
        Relative diagonal regularization applied when the factorization
        fails (rank-deficient Grams occur when factor columns die under
        aggressive L1); grows geometrically until ``potrf`` succeeds.
    """

    def __init__(self, matrix: np.ndarray, jitter: float = 1e-12):
        matrix = np.asarray(matrix, dtype=VALUE_DTYPE)
        require(matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1],
                "matrix must be square")
        self.size = matrix.shape[0]
        scale = float(np.trace(matrix)) / max(self.size, 1)
        if scale <= 0.0:
            scale = 1.0
        attempt = matrix
        added = 0.0
        attempts = 0
        while True:
            try:
                attempts += 1
                self._cho = scipy.linalg.cho_factor(
                    attempt, lower=True, check_finite=False)
                break
            except np.linalg.LinAlgError:
                added = jitter * scale if added == 0.0 else added * 10.0
                require(added < scale * 1e3,
                        f"{self.size}x{self.size} matrix is numerically "
                        "indefinite beyond repair (jitter escalation "
                        f"exhausted after {attempts} attempts)")
                attempt = matrix + added * np.eye(self.size)
        #: Diagonal jitter that was actually added (0.0 in the common case).
        self.jitter_added = added
        #: Factorization attempts (1 = clean; >1 = jitter escalation ran).
        self.attempts = attempts
        self._inverse: np.ndarray | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(G) x = rhs`` via forward/backward substitution.

        ``rhs`` may be a vector or a matrix whose **rows** are equations
        (``F x n`` right-hand sides are solved column-wise).
        """
        return scipy.linalg.cho_solve(self._cho, rhs, check_finite=False)

    def solve_t(self, rhs_rows: np.ndarray,
                overwrite: bool = False) -> np.ndarray:
        """Solve ``x G = rhs_rows`` for row-major tall-skinny operands.

        Equivalent to ``solve(rhs_rows.T).T`` but keeps the tall dimension
        leading, which is how the ADMM update consumes it.  With
        *overwrite* a C-contiguous ``float64`` *rhs_rows* is solved in
        place and returned (same values, no copy).
        """
        return scipy.linalg.cho_solve(
            self._cho, rhs_rows.T, overwrite_b=overwrite,
            check_finite=False).T

    def inverse(self) -> np.ndarray:
        """The factored (possibly jittered) matrix's inverse, C-contiguous.

        Formed once by ``cho_solve(cho, I)`` and cached.
        """
        if self._inverse is None:
            self._inverse = np.ascontiguousarray(scipy.linalg.cho_solve(
                self._cho, np.eye(self.size), check_finite=False))
        return self._inverse

    def solve_rows(self, rhs: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Solve ``x G = rhs`` row by row; each row as if solved alone.

        Every row of *rhs* is multiplied by :meth:`inverse` in one fixed
        order (:mod:`repro.kernels.row_solve`), so a row's bits never
        depend on the other rows.  The result is written to *out* (a
        writeable C-contiguous float64 matrix of *rhs*'s shape, which may
        be *rhs* itself for an in-place solve) or to a new array.
        """
        from ..kernels.row_solve import solve_rows

        if out is None:
            out = np.array(rhs, dtype=VALUE_DTYPE, order="C")
        elif out is not rhs:
            np.copyto(out, rhs)
        return solve_rows(out, self.inverse())

    @property
    def rows_backend(self) -> str:
        """``"native"`` or ``"numpy"``: what serves :meth:`solve_rows`."""
        from ..kernels.row_solve import backend

        return backend()


def spd_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot SPD solve (convenience wrapper over CholeskyFactor)."""
    return CholeskyFactor(matrix).solve(rhs)
