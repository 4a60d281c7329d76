"""Sparse factor-matrix substrate (Section IV-C of the paper).

Factor matrices become sparse dynamically under L1 regularization; this
subpackage provides the CSR and hybrid dense+CSR representations the
sparse MTTKRP kernels consume, plus the density analysis that decides when
sparsifying pays off.
"""

from .csr import CSRMatrix
from .hybrid import HybridFactor
from .analysis import (
    density,
    column_densities,
    dense_column_mask,
    should_sparsify,
    choose_representation,
)

__all__ = [
    "CSRMatrix",
    "HybridFactor",
    "density",
    "column_densities",
    "dense_column_mask",
    "should_sparsify",
    "choose_representation",
]
