"""Non-negativity: the paper's primary constraint (rank-50 NNCPD runs)."""

from __future__ import annotations

import numpy as np

from .base import Constraint


class NonNegative(Constraint):
    """Indicator of the non-negative orthant.

    ``prox`` projects by zeroing negative entries — elementwise, hence
    trivially row separable.
    """

    name = "nonneg"

    def prox(self, matrix: np.ndarray, step: float) -> np.ndarray:
        return np.maximum(matrix, 0.0, out=matrix)

    def native_prox(self, step: float) -> tuple[str, float]:
        return "nonneg", 0.0

    def penalty(self, matrix: np.ndarray) -> float:
        return 0.0 if self.is_feasible(matrix) else float("inf")

    def is_feasible(self, matrix: np.ndarray, atol: float = 1e-9) -> bool:
        return bool((matrix >= -atol).all())
