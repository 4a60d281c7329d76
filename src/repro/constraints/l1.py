"""L1 (lasso) regularization — the sparsity driver of Table II."""

from __future__ import annotations

import numpy as np

from ..validation import require
from .base import Constraint


class L1(Constraint):
    """``r(H) = weight * ||H||_1``; prox is soft thresholding.

    The paper's Table II uses ``weight = 1e-1`` on every factor to induce
    the dynamic factor sparsity the CSR/CSR-H kernels exploit.
    """

    name = "l1"

    def __init__(self, weight: float = 0.1):
        require(weight >= 0.0, "L1 weight must be non-negative")
        self.weight = float(weight)

    def prox(self, matrix: np.ndarray, step: float) -> np.ndarray:
        threshold = self.weight * step
        out = np.abs(matrix, out=None)
        out -= threshold
        np.maximum(out, 0.0, out=out)
        out *= np.sign(matrix)
        return out

    def penalty(self, matrix: np.ndarray) -> float:
        return self.weight * float(np.abs(matrix).sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"L1(weight={self.weight})"


class NonNegativeL1(Constraint):
    """Non-negativity plus L1: ``prox(v) = max(v - weight*step, 0)``.

    The composition is exact here (the orthant is invariant under soft
    thresholding), giving sparse *and* non-negative factors — the usual
    choice for interpretable topic-like components.
    """

    name = "nonneg_l1"

    def __init__(self, weight: float = 0.1):
        require(weight >= 0.0, "L1 weight must be non-negative")
        self.weight = float(weight)

    def prox(self, matrix: np.ndarray, step: float) -> np.ndarray:
        matrix -= self.weight * step
        return np.maximum(matrix, 0.0, out=matrix)

    def native_prox(self, step: float) -> tuple[str, float]:
        return "nonneg_l1", self.weight * step

    def penalty(self, matrix: np.ndarray) -> float:
        if (matrix < 0).any():
            return float("inf")
        return self.weight * float(matrix.sum())

    def is_feasible(self, matrix: np.ndarray, atol: float = 1e-9) -> bool:
        return bool((matrix >= -atol).all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NonNegativeL1(weight={self.weight})"
