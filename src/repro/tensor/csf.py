"""Compressed Sparse Fiber (CSF) tensors.

CSF (Smith & Karypis, "SPLATT") is the higher-order generalization of CSR:
the modes of a sparse tensor are compressed recursively so that each
root-to-leaf path encodes one non-zero's coordinates (paper Figure 2).  The
format removes the duplication of slice/fiber indices that COO carries, and
— more importantly for MTTKRP — makes the fiber structure explicit, so the
kernel can hoist factor rows out of inner loops (paper Algorithm 3).

Representation
--------------
For an ``N``-mode tensor ordered by ``mode_order`` (``mode_order[0]`` is the
root):

* ``fids[l]`` — for level ``l``, the mode-``mode_order[l]`` index of every
  node at that level.  Level ``N-1`` (the leaves) has one node per non-zero.
* ``fptr[l]`` — for levels ``0 .. N-2``, a pointer array of length
  ``nnodes(l) + 1`` delimiting each node's children at level ``l+1``.
* ``vals`` — the non-zero values, one per leaf, in tree order.

Construction orders the non-zeros lexicographically by ``mode_order`` and
finds the unique prefixes of every length — an ``O(nnz log nnz)`` one-time
cost, amortized over the whole factorization (the tensor's sparsity pattern
is static; see Section IV-C of the paper for the contrast with the dynamic
factor sparsity).  The order comes from one stable sort over packed keys
(:meth:`repro.tensor.coo.COOTensor.permutation_lex` over
:func:`repro.tensor.coo.pack_lex_keys`: each non-zero's coordinates, root
first, concatenated bit-wise into one ``int64`` word on every Table-I
shape but full Amazon, which takes two), not from an ``N``-key lexsort.
A stable sort over keys that are equal exactly when the coordinates are
equal yields the same permutation as ``np.lexsort`` over the coordinate
rows, duplicates included.

The ALLMODE bundle (:class:`AllModeCSF`, and the sharded store) sorts
only once, for tree 0 (order ``(0, 1, ..., N-1)``).  Every other tree
takes its order from tree 0's permutation by one *stable* sort of the
root mode's coordinates in that order: ties keep tree 0's order, which,
with the root mode set aside, is exactly ``(other modes ascending)``
with duplicates in input order.  A stable order is unique, so every
tree matches the plain construction
(:func:`repro.testing.oracles.lexsort_csf_reference`) byte for byte.

:func:`rooted_tree` and :func:`build_trees` build those trees in
compiled code (:mod:`repro.kernels.csf_build`, resolved on first use;
importing this module compiles nothing), per tree: one counting pass
per 16-bit digit of the root extent (none for tree 0 or an extent of 1)
sorts tree 0's permutation stably by the root coordinate; one pass in
that order writes the leaf ids and values, finds each non-zero's first
changed level and counts every level's nodes; and one pass writes
``fids`` and ``fptr`` above the leaves into arrays of exactly those
sizes.  The arrays are allocated on the calling thread; the compiled
passes of several trees run on an executor's workers.  Without a
compiler the NumPy construction serves, with the same bytes:
:func:`derive_permutation` (a stable ``uint16`` argsort per 16-bit
digit, NumPy's radix sort), then each level's ids gathered from the
coordinate rows.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..types import INDEX_DTYPE, VALUE_DTYPE
from ..validation import check_mode, require
from .coo import COOTensor


def default_mode_order(nmodes: int, root: int) -> tuple[int, ...]:
    """Mode order with *root* first and remaining modes in increasing order."""
    root = check_mode(root, nmodes)
    return (root,) + tuple(m for m in range(nmodes) if m != root)


#: Bits per radix digit of :func:`derive_permutation`: NumPy's stable
#: argsort is a radix sort on 16-bit (and narrower) integers.
DIGIT_BITS = 16


def derive_permutation(tensor: COOTensor, perm0: np.ndarray,
                       root: int) -> np.ndarray:
    """Tree *root*'s leaf order from tree 0's, by a stable sort on *root*.

    *perm0* orders the non-zeros lexicographically by ``(0, 1, ...,
    N-1)``.  Sorting it stably by the mode-*root* coordinate alone
    orders by ``default_mode_order(N, root)``, ties (duplicates) in
    input order — the permutation ``from_coo`` would sort for.  LSD
    radix: one stable ``uint16`` argsort per 16-bit digit of the
    extent, least significant first; tree 0 and an extent of 1 need
    no pass.  The coordinates must already be validated (computing
    *perm0* does).
    """
    nbits = int(tensor.shape[root] - 1).bit_length()
    if root == 0 or nbits == 0:
        return perm0
    keys = tensor.coords[root][perm0]
    perm = perm0
    for shift in range(0, nbits, DIGIT_BITS):
        # Casting to uint16 keeps the digit's low 16 bits.
        order = np.argsort((keys >> shift).astype(np.uint16),
                           kind="stable")
        perm = perm[order]
        if shift + DIGIT_BITS < nbits:
            keys = keys[order]
    return perm


def rooted_tree(tensor: COOTensor, perm0: np.ndarray,
                root: int) -> "CSFTensor":
    """The ``default_mode_order`` tree rooted at *root*, from *perm0*.

    *perm0* is tree 0's permutation (``tensor.permutation_lex()``); the
    ALLMODE bundle and the sharded store sort once for it and build
    every tree through here or :func:`build_trees`.
    """
    return build_trees(tensor, perm0, [root])[0]


def build_trees(tensor: COOTensor, perm0: np.ndarray,
                roots: Sequence[int], executor=None,
                threads: int | None = 1) -> list["CSFTensor"]:
    """The :func:`rooted_tree` of every mode in *roots*, in that order.

    The compiled passes of the trees run through *executor*'s
    ``parallel_for`` on *threads* (inline when *executor* is ``None``);
    every array is allocated on the calling thread.  Without the
    compiled builder each tree is built by NumPy in turn.
    """
    roots = [check_mode(root, tensor.nmodes) for root in roots]
    from ..kernels.csf_build import TreePlan, tree_builder

    builder = tree_builder() if tensor.nnz else None
    if builder is None:
        return [CSFTensor._from_permutation(
                    tensor, default_mode_order(tensor.nmodes, root),
                    derive_permutation(tensor, perm0, root))
                for root in roots]
    plans = [TreePlan(builder, tensor, perm0, root) for root in roots]

    def run(step) -> None:
        if executor is None:
            for plan in plans:
                step(plan)
        else:
            executor.parallel_for(step, plans, threads=threads)

    run(lambda plan: plan.plan())
    for plan in plans:
        plan.allocate()
    run(lambda plan: plan.fill())
    return [plan.tree() for plan in plans]


class CSFTensor:
    """A sparse tensor compressed as a forest of fiber trees.

    Use :meth:`from_coo` to construct.  The class is immutable after
    construction; all arrays are private to the instance.
    """

    __slots__ = ("shape", "mode_order", "fids", "fptr", "vals")

    def __init__(self, shape: tuple[int, ...], mode_order: tuple[int, ...],
                 fids: list[np.ndarray], fptr: list[np.ndarray],
                 vals: np.ndarray):
        self.shape = shape
        self.mode_order = mode_order
        self.fids = fids
        self.fptr = fptr
        self.vals = vals

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, tensor: COOTensor,
                 mode_order: Sequence[int] | None = None) -> "CSFTensor":
        """Compress a COO tensor.

        Parameters
        ----------
        tensor:
            Source tensor.  Duplicate coordinates must already be summed
            (see :meth:`COOTensor.deduplicate`); duplicates would create
            leaves with equal coordinates, which the MTTKRP kernels handle
            but reconstruction queries do not expect.
        mode_order:
            Permutation of the modes; ``mode_order[0]`` becomes the root
            level.  Defaults to ``(0, 1, ..., N-1)``.
        """
        nmodes = tensor.nmodes
        if mode_order is None:
            mode_order = tuple(range(nmodes))
        else:
            mode_order = tuple(check_mode(m, nmodes) for m in mode_order)
            require(sorted(mode_order) == list(range(nmodes)),
                    "mode_order must be a permutation of all modes")

        return cls._from_permutation(tensor, mode_order,
                                     tensor.permutation_lex(mode_order))

    @classmethod
    def _from_permutation(cls, tensor: COOTensor,
                          mode_order: tuple[int, ...],
                          perm: np.ndarray) -> "CSFTensor":
        """The tree of *tensor* whose leaves are the non-zeros in *perm*.

        *perm* must order the non-zeros lexicographically by
        *mode_order* (stably, for duplicates); each level's ids are
        gathered from the coordinate rows through it.
        """
        nmodes = tensor.nmodes
        nnz = tensor.nnz
        if nnz == 0:
            fids = [np.empty(0, dtype=INDEX_DTYPE) for _ in range(nmodes)]
            fptr = [np.zeros(1, dtype=INDEX_DTYPE) for _ in range(nmodes - 1)]
            return cls(tensor.shape, mode_order, fids,
                       fptr, np.empty(0, dtype=VALUE_DTYPE))
        vals = tensor.vals[perm]

        # `changed[p]` - True when the length-(l+1) prefix of non-zero p
        # differs from non-zero p-1.  A change at a shorter prefix implies a
        # change at every longer prefix, so we accumulate with |=.
        fids: list[np.ndarray] = []
        starts_per_level: list[np.ndarray] = []
        changed = np.zeros(nnz, dtype=bool)
        changed[0] = True
        for level, mode in enumerate(mode_order):
            ids = tensor.coords[mode][perm]
            if level < nmodes - 1:
                changed[1:] |= ids[1:] != ids[:-1]
                starts = np.flatnonzero(changed).astype(INDEX_DTYPE,
                                                        copy=False)
                starts_per_level.append(starts)
                fids.append(ids[starts])
            else:
                # Leaves: one node per non-zero.
                fids.append(ids)

        fptr: list[np.ndarray] = []
        for level in range(nmodes - 1):
            bounds = np.append(starts_per_level[level], nnz)
            if level == nmodes - 2:
                # The leaf starts are arange(nnz), against which
                # searchsorted is the identity.
                fptr.append(bounds)
            else:
                lower = starts_per_level[level + 1]
                fptr.append(
                    np.searchsorted(lower, bounds).astype(INDEX_DTYPE))

        return cls(tensor.shape, mode_order, fids, fptr, vals)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nmodes(self) -> int:
        """Tensor order."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of non-zeros (leaves)."""
        return self.vals.shape[0]

    def nnodes(self, level: int) -> int:
        """Number of nodes at *level* (0 = roots, N-1 = leaves)."""
        return self.fids[level].shape[0]

    @property
    def nfibers(self) -> int:
        """Nodes at the second-to-last level — the fibers of Algorithm 3."""
        if self.nmodes == 1:
            return self.nnodes(0)
        return self.nnodes(self.nmodes - 2)

    @property
    def nslices(self) -> int:
        """Number of non-empty root slices."""
        return self.nnodes(0)

    def children_counts(self, level: int) -> np.ndarray:
        """Number of children of every node at *level* (< leaves)."""
        return np.diff(self.fptr[level])

    def buffers(self) -> dict[str, np.ndarray]:
        """Stable, named export of every level array.

        The contract backing the sharded store's slab files
        (:mod:`repro.tensor.store`): keys are ``fids{l}`` for every
        level, ``fptr{l}`` for levels ``0..N-2``, and ``vals``; the
        returned arrays are the tensor's own (zero-copy).  The tensor is
        immutable after construction, so the export never goes stale.
        """
        out: dict[str, np.ndarray] = {"vals": self.vals}
        for level, arr in enumerate(self.fids):
            out[f"fids{level}"] = arr
        for level, arr in enumerate(self.fptr):
            out[f"fptr{level}"] = arr
        return out

    def storage_bytes(self) -> int:
        """Bytes used by the index and value arrays (for the cost model)."""
        total = self.vals.nbytes
        for arr in self.fids:
            total += arr.nbytes
        for arr in self.fptr:
            total += arr.nbytes
        return total

    def norm_squared(self) -> float:
        """Squared Frobenius norm, summed in leaf (lex-sorted) order.

        Part of the :class:`~repro.types.TensorSource` surface.  The
        leaves are a permutation of the originating COO values, so the
        floating-point sum can differ from the COO's in the last ulp;
        pipelines that need the trace bit-identical across backends
        evaluate ``norm_squared()`` once on the canonical source (the
        drivers do, and the sharded store freezes the COO's value in
        its metadata).
        """
        return float(np.einsum("i,i->", self.vals, self.vals))

    def norm(self) -> float:
        """Frobenius norm (square root of :meth:`norm_squared`)."""
        return float(np.sqrt(self.norm_squared()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "/".join(str(self.nnodes(l)) for l in range(self.nmodes))
        return (f"CSFTensor(shape={self.shape}, order={self.mode_order}, "
                f"nodes={sizes})")

    # ------------------------------------------------------------------
    # Conversion back (round-trip support + tests)
    # ------------------------------------------------------------------
    def to_coo(self) -> COOTensor:
        """Expand back to coordinate format (lex-sorted by ``mode_order``)."""
        nmodes = self.nmodes
        nnz = self.nnz
        coords = np.empty((nmodes, nnz), dtype=INDEX_DTYPE)
        if nnz:
            # Expand each level's node ids down to the leaves.
            for level in range(nmodes):
                ids = self.fids[level]
                for lower in range(level, nmodes - 1):
                    ids = np.repeat(ids, np.diff(self.fptr[lower]))
                coords[self.mode_order[level]] = ids
        return COOTensor(coords, self.vals.copy(), self.shape)

    def expand_to_level(self, arr: np.ndarray, level: int,
                        target: int) -> np.ndarray:
        """Repeat a per-node array at *level* down to *target* level nodes."""
        require(0 <= level <= target < self.nmodes, "bad level pair")
        out = arr
        for lower in range(level, target):
            out = np.repeat(out, np.diff(self.fptr[lower]), axis=0)
        return out


class AllModeCSF:
    """A bundle of CSF representations, one rooted at each mode.

    SPLATT's ``ALLMODE`` allocation: MTTKRP for mode ``m`` always runs the
    efficient *root-mode* kernel on ``csf(m)``.  Trees are built lazily
    (:meth:`csf`) or all at once (:meth:`build_all`, which fans the
    trees' compiled passes out over an executor) and cached.  The
    non-zeros are sorted once, for tree 0; every other tree derives its
    order from that permutation by counting passes over its root mode
    (:func:`build_trees`).  The permutation (8 bytes per non-zero) is
    kept only while it has trees left to serve: it is dropped once every
    tree is built, and a bundle asked for tree 0 alone (ONEMODE) does
    not keep it.
    """

    def __init__(self, tensor: COOTensor):
        self._tensor = tensor
        self._trees: dict[int, CSFTensor] = {}
        self._perm0: np.ndarray | None = None

    @property
    def tensor(self) -> COOTensor:
        """The underlying COO tensor."""
        return self._tensor

    @property
    def nmodes(self) -> int:
        return self._tensor.nmodes

    def csf(self, mode: int) -> CSFTensor:
        """The CSF tree rooted at *mode* (built on first request)."""
        mode = check_mode(mode, self.nmodes)
        tree = self._trees.get(mode)
        if tree is None:
            self._build([mode])
            tree = self._trees[mode]
        return tree

    def build_all(self, executor=None,
                  threads: int | None = 1) -> "AllModeCSF":
        """Build every tree not built yet, from one sort.

        The trees' compiled passes run through *executor*'s
        ``parallel_for`` on *threads* (inline when it is ``None``, or
        under the ``serial`` executor); the trees are the same bytes
        either way.
        """
        # Tree 0 needs no counting pass: it goes last.
        modes = (*range(1, self.nmodes), 0)
        self._build([m for m in modes if m not in self._trees], executor,
                    threads)
        return self

    def _build(self, modes: list[int], executor=None,
               threads: int | None = 1) -> None:
        if not modes:
            return
        perm0 = self._perm0
        if perm0 is None:
            perm0 = self._tensor.permutation_lex()
        trees = build_trees(self._tensor, perm0, modes, executor, threads)
        self._trees.update(zip(modes, trees))
        done = (len(self._trees) == self.nmodes
                or self._trees.keys() == {0})
        self._perm0 = None if done else perm0

    def storage_bytes(self) -> int:
        """Total bytes of all built trees."""
        return sum(t.storage_bytes() for t in self._trees.values())
