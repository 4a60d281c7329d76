"""Per-mode ADMM state (primal + dual variables).

AO-ADMM warm-starts each mode's inner solve from the previous outer
iteration's primal and dual variables (Algorithm 2 passes ``A, A_dual``
back in) — this carry-over is a large part of its fast convergence, so the
state lives across outer iterations in this container.
"""

from __future__ import annotations

import numpy as np

from ..types import VALUE_DTYPE
from ..validation import check_factor, require


class AdmmState:
    """Primal factor ``H`` and scaled dual ``U`` for one tensor mode."""

    __slots__ = ("primal", "dual")

    def __init__(self, primal: np.ndarray, dual: np.ndarray | None = None):
        self.primal = check_factor(primal, name="primal")
        if dual is None:
            dual = np.zeros_like(self.primal)
        self.dual = check_factor(dual, name="dual")
        require(self.dual.shape == self.primal.shape,
                "dual must match primal shape")

    @property
    def rows(self) -> int:
        return self.primal.shape[0]

    @property
    def rank(self) -> int:
        return self.primal.shape[1]

    def copy(self) -> "AdmmState":
        """Deep copy (equal starts for solver comparisons; the snapshot a
        background checkpoint write reads)."""
        return AdmmState(self.primal.copy(), self.dual.copy())

    def is_finite(self) -> bool:
        """True when both primal and dual are free of NaN/Inf."""
        return bool(np.isfinite(self.primal).all()
                    and np.isfinite(self.dual).all())

    @classmethod
    def from_snapshot(cls, primal: np.ndarray,
                      dual: np.ndarray) -> "AdmmState":
        """A state holding copies of *primal* and *dual*."""
        return cls(np.array(primal, copy=True), np.array(dual, copy=True))

    @classmethod
    def from_factor(cls, factor: np.ndarray) -> "AdmmState":
        """Fresh state around an initial factor with zero duals."""
        return cls(np.array(factor, dtype=VALUE_DTYPE, copy=True))
