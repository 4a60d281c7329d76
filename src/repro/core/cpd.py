"""The CP decomposition model object.

A rank-``F`` CPD approximates a tensor as the sum of ``F`` outer products
(paper Figure 1).  :class:`CPModel` bundles the factor matrices with
optional component weights, and provides evaluation utilities — notably
the efficient relative error of Section V-A, computed without ever
reconstructing the tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.optimize

from ..linalg.norms import (
    column_norms,
    model_norm_squared,
    normalize_factors,
)
from ..tensor.coo import COOTensor
from ..tensor.dense import dense_from_factors
from ..tensor.random import cp_values_at
from ..types import VALUE_DTYPE, FactorList
from ..validation import check_factor, check_rank, require


@dataclass
class CPModel:
    """A (weighted) CP decomposition."""

    factors: list[np.ndarray]
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        require(len(self.factors) >= 1, "need at least one factor")
        rank = np.asarray(self.factors[0]).shape[1]
        self.factors = [check_factor(f, rank=rank, name=f"factor {m}")
                        for m, f in enumerate(self.factors)]
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=VALUE_DTYPE)
            require(self.weights.shape == (rank,),
                    "weights must have one entry per component")

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of components F."""
        return self.factors[0].shape[1]

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the reconstructed tensor."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def nmodes(self) -> int:
        return len(self.factors)

    def copy(self) -> "CPModel":
        """Deep copy."""
        return CPModel([f.copy() for f in self.factors],
                       None if self.weights is None else self.weights.copy())

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _effective_factors(self) -> list[np.ndarray]:
        """Factors with the weights folded into the first mode."""
        if self.weights is None:
            return list(self.factors)
        return [self.factors[0] * self.weights] + list(self.factors[1:])

    def norm_squared(self) -> float:
        """``||X_hat||_F^2`` via the Gram identity (never reconstructs)."""
        return max(model_norm_squared(self._effective_factors()), 0.0)

    def values_at(self, coords: np.ndarray) -> np.ndarray:
        """Model values at given ``(nmodes, n)`` coordinates."""
        return cp_values_at(self._effective_factors(), coords)

    def inner_with(self, tensor: COOTensor) -> float:
        """``<X, X_hat> = sum_p x_p * xhat_p`` over the tensor's support.

        Exact: the inner product only involves coordinates where X is
        non-zero, so evaluating the (dense) model at those points suffices.
        Summed by NumPy's own loop, not BLAS ``ddot``, whose sum depends
        on the BLAS thread count.
        """
        if tensor.nnz == 0:
            return 0.0
        return float(np.einsum("i,i->", tensor.vals,
                               self.values_at(tensor.coords)))

    def relative_error(self, tensor: COOTensor) -> float:
        """``||X - X_hat||_F / ||X||_F`` via the expansion identity.

        ``||X - X_hat||^2 = ||X||^2 - 2 <X, X_hat> + ||X_hat||^2`` —
        ``O(nnz * F)`` work, no reconstruction (Section V-A convention).
        """
        norm_x_sq = tensor.norm_squared()
        require(norm_x_sq > 0.0, "tensor norm is zero")
        err_sq = norm_x_sq - 2.0 * self.inner_with(tensor) + self.norm_squared()
        return float(np.sqrt(max(err_sq, 0.0) / norm_x_sq))

    def to_dense(self) -> np.ndarray:
        """Full reconstruction (small models / tests only)."""
        return dense_from_factors(self.factors, self.weights)

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------
    def normalized(self) -> "CPModel":
        """Unit-norm columns with magnitudes absorbed into weights."""
        factors, weights = normalize_factors(self._effective_factors())
        return CPModel(factors, weights)

    def component_order(self) -> np.ndarray:
        """Component indices sorted by decreasing weight/magnitude."""
        normalized = self.normalized()
        return np.argsort(-np.abs(normalized.weights))

    def factor_density(self, mode: int, tol: float = 0.0) -> float:
        """Density of one factor — the quantity driving Table II."""
        factor = self.factors[mode]
        if factor.size == 0:
            return 0.0
        return float(np.count_nonzero(np.abs(factor) > tol)) / factor.size


def factor_match_score(model_a: CPModel | Sequence[np.ndarray],
                       model_b: CPModel | Sequence[np.ndarray]) -> float:
    """Factor match score (FMS) between two CP models in ``[0, 1]``.

    Components are matched with the Hungarian algorithm on the product of
    per-mode cosine similarities; the score is the mean matched similarity.
    1.0 means the models' components coincide up to permutation + scaling.
    """
    a = model_a if isinstance(model_a, CPModel) else CPModel(list(model_a))
    b = model_b if isinstance(model_b, CPModel) else CPModel(list(model_b))
    require(a.nmodes == b.nmodes, "models must have the same mode count")
    na = a.normalized()
    nb = b.normalized()
    sim = np.ones((na.rank, nb.rank), dtype=VALUE_DTYPE)
    for fa, fb in zip(na.factors, nb.factors):
        sim *= np.abs(fa.T @ fb)
    rows, cols = scipy.optimize.linear_sum_assignment(-sim)
    return float(sim[rows, cols].mean())
