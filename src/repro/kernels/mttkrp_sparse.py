"""MTTKRP with sparse factor matrices (paper Section IV-C).

Only the **leaf-level** factor of the CSF traversal is accessed once per
non-zero; the factors above it are touched once per fiber or slice.  The
paper therefore sparsifies only that deep factor ("we only represent C in
CSR form and only need to modify line 9 of Algorithm 3").  The kernel here
mirrors that: the leaf gather is routed through a pluggable factor
representation — dense ndarray, :class:`~repro.sparse.csr.CSRMatrix`, or
:class:`~repro.sparse.hybrid.HybridFactor` — and the rest of the sweep is
unchanged.

The engine runs that leaf stage in the compiled kernel of
:mod:`repro.kernels.native`, which touches only the factor's stored
entries per non-zero.  :func:`mttkrp_csf_root_repr` below is its NumPy
fallback and byte oracle: one SciPy product of the cached
:func:`leaf_aggregator` with the factor, then the ``reduceat`` sweep.
"""

from __future__ import annotations

from typing import Union

import numpy as np
import scipy.sparse as sp

from ..sparse.csr import CSRMatrix
from ..sparse.hybrid import HybridFactor
from ..tensor.csf import CSFTensor
from ..types import INDEX_DTYPE, VALUE_DTYPE, FactorList
from ..validation import require
from .scatter import segment_sums

#: Anything usable as the deep-mode factor in the sparse MTTKRP kernel.
FactorRepresentation = Union[np.ndarray, CSRMatrix, HybridFactor]


def gather_scale(rep: FactorRepresentation, row_index: np.ndarray,
                 scale: np.ndarray) -> np.ndarray:
    """``out[p, :] = scale[p] * rep[row_index[p], :]`` for any representation."""
    if isinstance(rep, (CSRMatrix, HybridFactor)):
        return rep.gather_scale_rows(row_index, scale)
    rep = np.asarray(rep, dtype=VALUE_DTYPE)
    return rep[row_index] * scale[:, None]


def representation_nnz(rep: FactorRepresentation,
                       row_index: np.ndarray) -> int:
    """Stored entries a leaf gather touches, one lookup per leaf id.

    The reference for :func:`counted_nnz`, which the engine uses.
    """
    if isinstance(rep, (CSRMatrix, HybridFactor)):
        return rep.gathered_nnz(row_index)
    rep = np.asarray(rep)
    return int(row_index.shape[0]) * int(rep.shape[1])


def leaf_counts(csf: CSFTensor) -> np.ndarray:
    """How often a leaf gather reads each deep-factor row.

    ``np.bincount`` of the tree's leaf ids, one entry per row of the
    leaf mode.  The pattern is static, so the engine computes it once
    per tree.
    """
    leaf_mode = csf.mode_order[csf.nmodes - 1]
    return np.bincount(csf.fids[csf.nmodes - 1],
                       minlength=csf.shape[leaf_mode])


def counted_nnz(rep: FactorRepresentation, counts: np.ndarray) -> int:
    """:func:`representation_nnz` from the tree's :func:`leaf_counts`.

    ``counts · row_nnz``, plus ``nnz · n_dense_cols`` for CSR-H: the
    same integer in ``O(rows)`` instead of a gather over every leaf id.
    """
    if isinstance(rep, HybridFactor):
        return (int(counts.sum()) * rep.n_dense_cols
                + counted_nnz(rep.csr_part, counts))
    if isinstance(rep, CSRMatrix):
        return int(counts @ rep.row_nnz())
    return int(counts.sum()) * int(np.asarray(rep).shape[1])


def representation_name(rep: FactorRepresentation) -> str:
    """Short name used in traces and benchmark tables."""
    if isinstance(rep, HybridFactor):
        return "csr-h"
    if isinstance(rep, CSRMatrix):
        return "csr"
    return "dense"


def leaf_aggregator(csf: CSFTensor) -> sp.csr_matrix:
    """The fiber-by-leaf-mode aggregation matrix ``S`` of a CSF tree.

    ``S[f, k] = sum of values of fiber f's non-zeros with leaf index k``,
    shape ``(nfibers, K_leaf)``.  The leaf stage of root-mode MTTKRP is
    then a single sparse product ``Z_fib = S @ C`` — whose cost scales
    with the *stored* entries of ``C``, which is exactly the saving the
    paper's sparse-factor kernels harvest.  The tensor's pattern is static,
    so ``S`` is built once per tree and cached by the engine.
    """
    nmodes = csf.nmodes
    if nmodes == 1:
        raise ValueError("aggregator needs at least two modes")
    fiber_sizes = np.diff(csf.fptr[nmodes - 2])
    rows = np.repeat(
        np.arange(fiber_sizes.shape[0], dtype=INDEX_DTYPE), fiber_sizes)
    leaf_mode = csf.mode_order[nmodes - 1]
    mat = sp.csr_matrix(
        (csf.vals, (rows, csf.fids[nmodes - 1])),
        shape=(fiber_sizes.shape[0], csf.shape[leaf_mode]))
    return mat


def _fiber_rows_sparse(csf: CSFTensor, leaf_rep: FactorRepresentation,
                       aggregator: sp.csr_matrix) -> np.ndarray:
    """Per-fiber accumulations through a compressed deep factor."""
    if isinstance(leaf_rep, HybridFactor):
        parts = []
        if leaf_rep.n_dense_cols:
            # Sparse-times-dense: SciPy's CSR matvec block, very efficient.
            parts.append(aggregator @ leaf_rep.dense_part)
        if leaf_rep.csr_part.shape[1]:
            parts.append(
                np.asarray((aggregator @ leaf_rep.csr_part.to_scipy())
                           .todense()))
        permuted = (np.concatenate(parts, axis=1) if len(parts) > 1
                    else parts[0])
        return np.ascontiguousarray(permuted[:, leaf_rep.inv_perm])
    # Plain CSR: one SpGEMM whose cost follows the stored non-zeros.
    return np.asarray((aggregator @ leaf_rep.to_scipy()).todense())


def mttkrp_csf_root_repr(csf: CSFTensor, factors: FactorList,
                         leaf_rep: FactorRepresentation | None = None,
                         aggregator: sp.csr_matrix | None = None
                         ) -> np.ndarray:
    """Root-mode MTTKRP with a pluggable deep-factor representation.

    Identical in output to :func:`repro.kernels.mttkrp_csf.mttkrp_csf_root`
    for any representation; with a CSR/hybrid deep factor the leaf stage
    runs as a sparse product against the (cached) :func:`leaf_aggregator`,
    so its work scales with the factor's stored entries instead of
    ``nnz * F``.  The compiled kernel's sparse leaf stage
    (``RootKernel.bind(..., leaf=rep)``) is byte-equal to this function,
    which serves when that kernel is unavailable.
    """
    rank = int(np.asarray(factors[0]).shape[1])
    order = csf.mode_order
    nmodes = csf.nmodes
    out = np.zeros((csf.shape[order[0]], rank), dtype=VALUE_DTYPE)
    if csf.nnz == 0:
        return out
    require(nmodes >= 2, "MTTKRP needs at least two modes")

    if leaf_rep is None or isinstance(leaf_rep, np.ndarray):
        dense = (np.asarray(factors[order[nmodes - 1]])
                 if leaf_rep is None else leaf_rep)
        acc = dense[csf.fids[nmodes - 1]] * csf.vals[:, None]
        acc = segment_sums(acc, csf.fptr[nmodes - 2][:-1])
    else:
        if aggregator is None:
            aggregator = leaf_aggregator(csf)
        acc = _fiber_rows_sparse(csf, leaf_rep, aggregator)

    # `acc` now holds one row per fiber (level N-2 node); continue the
    # standard upward sweep.
    for level in range(nmodes - 2, -1, -1):
        if level != nmodes - 2:
            acc = segment_sums(acc, csf.fptr[level][:-1])
        if level != 0:
            acc = acc * np.asarray(factors[order[level]])[csf.fids[level]]
    out[csf.fids[0]] = acc
    return out
