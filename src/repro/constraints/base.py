"""Constraint interface.

A constraint/regularization is a penalty ``r(H)`` in the objective
(Equation 1 of the paper).  ADMM only interacts with it through the
**proximity operator**

``prox_{r, step}(V) = argmin_H  r(H) + 1/(2 * step) * ||H - V||_F^2``

evaluated with ``step = 1/rho`` in Algorithm 1 line 8.  Constraints are
encoded by letting ``r`` be an indicator function (``prox`` is then the
Euclidean projection); regularizations use finite penalties.
"""

from __future__ import annotations

import abc

import numpy as np


class Constraint(abc.ABC):
    """A penalty term ``r(.)`` applied to one factor matrix."""

    #: Whether ``prox`` acts on each row independently.  Row-separable
    #: penalties admit the blockwise ADMM reformulation (Section IV-B);
    #: the blocked solver refuses non-separable ones.
    row_separable: bool = True

    #: Short identifier used in options, traces, and benchmark tables.
    name: str = "constraint"

    @abc.abstractmethod
    def prox(self, matrix: np.ndarray, step: float) -> np.ndarray:
        """Return ``prox_{r, step}(matrix)``.

        Implementations may write into *matrix* and return it (callers pass
        freshly computed ``H_tilde - U`` buffers); they must not retain a
        reference.
        """

    def native_prox(self, step: float) -> tuple[str, float] | None:
        """``(kind, threshold)`` when the compiled ADMM block loop
        implements ``prox(., step)``, else ``None`` (the NumPy loop then
        serves).  Kinds are those of :data:`repro.kernels.row_solve.
        PROX_KINDS`; the kernel replays :meth:`prox` bit for bit."""
        return None

    @abc.abstractmethod
    def penalty(self, matrix: np.ndarray) -> float:
        """Evaluate ``r(matrix)``.

        Indicator constraints return ``0.0`` when feasible and ``inf``
        otherwise; regularizers return their finite value.  Used by tests
        and by objective-value reporting — never inside the solver loop.
        """

    def is_feasible(self, matrix: np.ndarray, atol: float = 1e-9) -> bool:
        """Whether *matrix* satisfies the constraint (regularizers: always)."""
        return bool(np.isfinite(self.penalty(matrix)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class Unconstrained(Constraint):
    """``r = 0``: ADMM degenerates to the plain least-squares update."""

    name = "none"

    def prox(self, matrix: np.ndarray, step: float) -> np.ndarray:
        return matrix

    def penalty(self, matrix: np.ndarray) -> float:
        return 0.0
