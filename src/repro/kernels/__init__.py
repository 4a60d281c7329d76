"""Tensor-matrix computational kernels (the SPLATT kernel layer).

MTTKRP — the matricized tensor times Khatri-Rao product,
``K = X_(m) (A_{N-1} x ... x A_{m+1} x A_{m-1} x ... x A_0)`` — costs
``O(F nnz)`` per call and dominates the factorization of dense-ish tensors
(paper Figure 3), so it gets multiple implementations:

* reference COO loops (oracles for tests),
* vectorized COO with sort-based segment reduction,
* CSF kernels exploiting the fiber structure (paper Algorithm 3), and
* sparse-factor variants consuming CSR / hybrid factors (Section IV-C).
"""

from .scatter import scatter_add_rows, segment_sums
from .mttkrp_coo import mttkrp_coo_reference, mttkrp_coo
from .mttkrp_csf import (
    mttkrp_csf_root,
    mttkrp_csf_leaf,
    mttkrp_csf_internal,
    mttkrp_csf,
)
from .mttkrp_sparse import mttkrp_csf_root_repr, FactorRepresentation
from .workspace import BufferPool, KernelWorkspace
from .dispatch import (
    mttkrp,
    make_engine,
    MTTKRPEngine,
    MTTKRPCallStats,
    StreamingMTTKRPEngine,
)
from .autotune import (
    BackendAutotuner,
    BackendCandidate,
    ModeDecision,
    TuningReport,
    candidate_backends,
    resolve_tune_mode,
)

__all__ = [
    "scatter_add_rows",
    "segment_sums",
    "mttkrp_coo_reference",
    "mttkrp_coo",
    "mttkrp_csf_root",
    "mttkrp_csf_leaf",
    "mttkrp_csf_internal",
    "mttkrp_csf",
    "mttkrp_csf_root_repr",
    "FactorRepresentation",
    "BufferPool",
    "KernelWorkspace",
    "mttkrp",
    "make_engine",
    "MTTKRPEngine",
    "MTTKRPCallStats",
    "StreamingMTTKRPEngine",
    "BackendAutotuner",
    "BackendCandidate",
    "ModeDecision",
    "TuningReport",
    "candidate_backends",
    "resolve_tune_mode",
]
