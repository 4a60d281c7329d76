"""Slab tiling of CSF trees (paper Section IV-A slice parallelism).

The paper parallelizes MTTKRP over the *slices* of the CSF tree
(Algorithm 3's outer loop); SPLATT and its descendants generalize that to
contiguous groups of root slices — *slabs* — sized so that work is balanced
by non-zero count rather than by slice count (real tensors are heavily
skewed; see the Zipf marginals in :mod:`repro.datasets.powerlaw`).

A :class:`CSFSlab` is a fully self-contained sub-tree: because slabs are
contiguous *complete* sub-forests (they split only at root-slice
boundaries), every node of the original tree belongs to exactly one slab,
and each level of a slab is a contiguous range of the parent's node
arrays.  The slab's ``fids``/``vals`` are therefore zero-copy views; only
the pointer arrays are rebased (one small copy per slab, made **once** —
the tensor's sparsity pattern is static across the whole factorization).

Consequences the kernels rely on:

* every fiber/segment of the original tree lies inside exactly one slab,
  so per-slab upward (``reduceat``) and downward (``repeat``) sweeps
  compute **bit-identical** node values to the monolithic sweep;
* root-slice ids are unique and ascending across slabs, so the root-mode
  kernel writes disjoint output rows with no reduction;
* each slab's leaf range ``[leaf_lo, leaf_hi)`` tiles ``range(nnz)``, so
  leaf/internal kernels can write per-node products into disjoint ranges
  of one shared buffer and finish with a single deterministic scatter.
"""

from __future__ import annotations

import numpy as np

from ..config import DEFAULT_SLAB_NNZ
from ..parallel.partition import balanced_chunks
from ..validation import require
from .csf import CSFTensor


def nnz_per_root_slice(csf: CSFTensor) -> np.ndarray:
    """Non-zero count under every root node (the slab-balancing weights)."""
    if csf.nslices == 0:
        return np.zeros(0, dtype=np.int64)
    ptr = csf.fptr[0]
    for level in range(1, csf.nmodes - 1):
        ptr = csf.fptr[level][ptr]
    return np.diff(ptr)


class CSFSlab:
    """One contiguous root-slice slab of a CSF tree.

    Attributes
    ----------
    index:
        Position of the slab within its tiling (stable scheduling key).
    tree:
        A rebased :class:`CSFTensor` over this slab's nodes only —
        ``fids``/``vals`` are views into the parent, ``fptr`` arrays are
        rebased copies so the standard kernels work unchanged.
    node_ranges:
        Per level, the ``(start, stop)`` range this slab occupies in the
        parent tree's node arrays.  ``node_ranges[-1]`` is the leaf (and
        value) range; ranges at every level tile the parent exactly.
    """

    __slots__ = ("index", "tree", "node_ranges")

    def __init__(self, index: int, tree: CSFTensor,
                 node_ranges: tuple[tuple[int, int], ...]):
        self.index = index
        self.tree = tree
        self.node_ranges = node_ranges

    @property
    def nnz(self) -> int:
        return self.tree.nnz

    @property
    def root_range(self) -> tuple[int, int]:
        """Root-node range in the parent tree."""
        return self.node_ranges[0]

    @property
    def leaf_range(self) -> tuple[int, int]:
        """Leaf/value range in the parent tree (== COO position range)."""
        return self.node_ranges[-1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.root_range
        return (f"CSFSlab(index={self.index}, roots=[{lo}:{hi}), "
                f"nnz={self.nnz})")


def _make_slab(csf: CSFTensor, index: int, roots: slice) -> CSFSlab:
    nmodes = csf.nmodes
    lo, hi = roots.start, roots.stop
    ranges: list[tuple[int, int]] = [(lo, hi)]
    for level in range(nmodes - 1):
        lo, hi = int(csf.fptr[level][lo]), int(csf.fptr[level][hi])
        ranges.append((lo, hi))
    fids = [csf.fids[level][ranges[level][0]:ranges[level][1]]
            for level in range(nmodes)]
    fptr = [csf.fptr[level][ranges[level][0]:ranges[level][1] + 1]
            - csf.fptr[level][ranges[level][0]]
            for level in range(nmodes - 1)]
    vals = csf.vals[ranges[-1][0]:ranges[-1][1]]
    tree = CSFTensor(csf.shape, csf.mode_order, fids, fptr, vals)
    return CSFSlab(index, tree, tuple(ranges))


class CSFTiling:
    """A partition of a CSF tree into balanced, independent slabs.

    Parameters
    ----------
    csf:
        The tree to tile.
    slab_nnz_target:
        Desired non-zeros per slab; the slab count is
        ``ceil(nnz / target)`` capped at the slice count (slabs never
        split a root slice).  ``None`` uses
        :data:`repro.config.DEFAULT_SLAB_NNZ`.
    n_slabs:
        Explicit slab count (overrides *slab_nnz_target*).

    The decomposition is *static*: built once per tree and reused for the
    whole factorization, exactly like the tree itself.  Slab boundaries
    come from :func:`repro.parallel.partition.balanced_chunks` over the
    per-slice non-zero counts — the same weight-balanced contiguous
    partitioner blocked ADMM uses for its row blocks.
    """

    def __init__(self, csf: CSFTensor,
                 slab_nnz_target: int | None = None,
                 n_slabs: int | None = None):
        self.csf = csf
        if slab_nnz_target is None:
            slab_nnz_target = DEFAULT_SLAB_NNZ
        require(slab_nnz_target >= 1, "slab_nnz_target must be positive")
        self.slab_nnz_target = int(slab_nnz_target)
        weights = nnz_per_root_slice(csf)
        if n_slabs is None:
            n_slabs = -(-csf.nnz // self.slab_nnz_target) if csf.nnz else 0
        require(n_slabs >= 0, "n_slabs must be non-negative")
        n_slabs = max(1, min(int(n_slabs), csf.nslices)) if csf.nslices \
            else 0
        chunks = balanced_chunks(weights, n_slabs) if n_slabs else []
        self.slabs: list[CSFSlab] = [
            _make_slab(csf, i, roots) for i, roots in enumerate(chunks)]

    @property
    def slab_count(self) -> int:
        return len(self.slabs)

    @property
    def slab_nnz(self) -> np.ndarray:
        """Per-slab non-zero counts (the schedulable work-item weights)."""
        return np.array([s.nnz for s in self.slabs], dtype=np.int64)

    def __iter__(self):
        return iter(self.slabs)

    def __len__(self) -> int:
        return len(self.slabs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSFTiling(slabs={self.slab_count}, "
                f"target={self.slab_nnz_target}, nnz={self.csf.nnz})")


def tile_csf(csf: CSFTensor, slab_nnz_target: int | None = None,
             n_slabs: int | None = None) -> CSFTiling:
    """Convenience constructor mirroring :class:`CSFTiling`."""
    return CSFTiling(csf, slab_nnz_target=slab_nnz_target, n_slabs=n_slabs)
