"""CSF tree construction, compiled: one tree in two calls into ``csf_build.c``.

Every tree of the ALLMODE bundle and of the sharded store derives its
order from tree 0's permutation (:func:`repro.tensor.csf.build_trees`).
``csf_build.c`` (built into the library of :mod:`repro.kernels.native`)
builds one tree in two calls:

* ``repro_csf_plan`` sorts tree 0's permutation stably by the root
  coordinate, one counting pass per 16-bit digit of the root extent
  into a bucket array the caller provides (none for tree 0 or an extent
  of 1), then walks the tree's order once, writing the leaf ids and
  values straight into the tree's arrays and recording each non-zero's
  first changed level and every level's node count;
* ``repro_csf_fill`` writes ``fids`` and ``fptr`` of the levels above
  the leaves into arrays of exactly the planned sizes, reading each
  node's id at its first non-zero.

A stable order is unique, so the trees are byte-equal to the NumPy
construction (``CSFTensor._from_permutation`` over
:func:`~repro.tensor.csf.derive_permutation`), which stays the fallback
and the self-check's reference.

**Allocation.**  :class:`TreePlan` allocates every array in its
constructor and in :meth:`TreePlan.allocate`, on the calling thread;
:meth:`TreePlan.plan` and :meth:`TreePlan.fill` only run the compiled
calls, so they may run on a pool's worker threads (ctypes releases the
GIL).  Allocating on the workers would spread the trees over glibc's
per-thread arenas and raise the process's peak RSS.  A plan holds, per
non-zero, the tree's order (8 bytes; none for tree 0, which reads tree
0's permutation) and its first changed level (1 byte) beyond the tree.

**Fallback.**  :func:`tree_builder` resolves once per process: build or
load the library, then check the builder byte for byte against the
NumPy construction on probe tensors (:data:`PROBE_SHAPES`).  Any failure
makes it return ``None`` for the rest of the process, with one
``RuntimeWarning`` and one ``kernel_fallback`` observability record, and
the NumPy construction serves.  The verdict is separate from the root
MTTKRP kernel's and the ADMM kernel's.

**Input safety.**  Every permutation entry is checked against ``nnz``
and every coordinate against its extent before it is used as an index;
a violation raises :class:`IndexError`.
"""

from __future__ import annotations

import ctypes
import threading
import warnings

import numpy as np

from ..observability import record_kernel_fallback
from ..tensor.coo import COOTensor
from ..tensor.csf import (
    DIGIT_BITS,
    CSFTensor,
    default_mode_order,
    derive_permutation,
)
from ..types import INDEX_DTYPE, VALUE_DTYPE
from ..validation import require

_ERRORS = {1: "a coordinate lies outside its mode's extent",
           2: "a permutation entry lies outside the non-zeros",
           3: "inconsistent tree plan"}

#: Shapes of the self-check's probe tensors (duplicates included): 3
#: modes, unit extents, 1 and 5 modes, and root extents of two and
#: three 16-bit digits.
PROBE_SHAPES = ((5, 4, 6), (1, 9, 1), (17,), (4, 3, 5, 2, 3),
                (70000, 3, 65537), (3, 2**32 + 5, 2))


def _check(code: int) -> None:
    if code:
        raise IndexError(_ERRORS.get(code, f"native error {code}"))


def _pointers(arrays) -> np.ndarray:
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)


def _data(arr: np.ndarray | None) -> int | None:
    return None if arr is None else arr.ctypes.data


class TreePlan:
    """The build of one tree: allocate here, run the compiled calls
    anywhere.

    The constructor and :meth:`allocate` allocate (call them on one
    thread); :meth:`plan` and :meth:`fill` only run the compiled calls.
    """

    def __init__(self, builder: "TreeBuilder", tensor: COOTensor,
                 perm0: np.ndarray, root: int):
        nnz = tensor.nnz
        require(nnz > 0, "a tree plan needs non-zeros")
        self._builder = builder
        self._shape = tensor.shape
        self.mode_order = default_mode_order(tensor.nmodes, root)
        coords = np.ascontiguousarray(tensor.coords, dtype=INDEX_DTYPE)
        self._rows = [coords[m] for m in self.mode_order]
        self._row_ptrs = _pointers(self._rows)
        self._extents = np.array([tensor.shape[m] for m in self.mode_order],
                                 dtype=INDEX_DTYPE)
        self._in_vals = np.ascontiguousarray(tensor.vals, dtype=VALUE_DTYPE)
        self._perm0 = np.ascontiguousarray(perm0, dtype=INDEX_DTYPE)
        require(self._perm0.shape == (nnz,),
                f"perm0 must hold {nnz} entries")
        # Tree 0 and an extent of 1 keep tree 0's order.
        self._nbits = 0 if root == 0 \
            else int(tensor.shape[root] - 1).bit_length()
        npasses = -(-self._nbits // DIGIT_BITS)
        self._idx = np.empty(nnz, dtype=INDEX_DTYPE) if npasses \
            else self._perm0
        self._tmp = np.empty(nnz, dtype=INDEX_DTYPE) if npasses > 1 \
            else None
        self._buckets = np.empty(1 << min(self._nbits, DIGIT_BITS),
                                 dtype=INDEX_DTYPE) if npasses else None
        # The leaf ids and values are the tree's own arrays.
        self._leaf = np.empty(nnz, dtype=INDEX_DTYPE)
        self._vals = np.empty(nnz, dtype=VALUE_DTYPE)
        self._first = np.empty(nnz, dtype=np.uint8)
        self._counts = np.empty(tensor.nmodes, dtype=INDEX_DTYPE)
        self._tree: CSFTensor | None = None

    def plan(self) -> None:
        """Order the non-zeros and count every level's nodes."""
        _check(self._builder.plan_fn(
            len(self.mode_order), self._perm0.shape[0],
            self._row_ptrs.ctypes.data, self._extents.ctypes.data,
            self._in_vals.ctypes.data, self._perm0.ctypes.data, self._nbits,
            self._idx.ctypes.data, _data(self._tmp), _data(self._buckets),
            self._leaf.ctypes.data, self._vals.ctypes.data,
            self._first.ctypes.data, self._counts.ctypes.data))

    def allocate(self) -> None:
        """Allocate the levels above the leaves at their planned sizes."""
        self._tmp = self._buckets = None
        counts = [int(c) for c in self._counts[:-1]]
        fids = [np.empty(c, dtype=INDEX_DTYPE) for c in counts]
        fptr = [np.empty(c + 1, dtype=INDEX_DTYPE) for c in counts]
        self._tree = CSFTensor(self._shape, self.mode_order,
                               fids + [self._leaf], fptr, self._vals)
        self._level_ptrs = _pointers(fids), _pointers(fptr)

    def fill(self) -> None:
        """Write the allocated levels' ids and pointers."""
        fids, fptr = self._level_ptrs
        _check(self._builder.fill_fn(
            len(self.mode_order), self._perm0.shape[0],
            self._row_ptrs.ctypes.data, self._idx.ctypes.data,
            self._first.ctypes.data, self._counts.ctypes.data,
            fids.ctypes.data, fptr.ctypes.data))

    def tree(self) -> CSFTensor:
        """The filled tree."""
        return self._tree


class TreeBuilder:
    """The two compiled entry points of ``csf_build.c``."""

    def __init__(self, plan_fn, fill_fn):
        self.plan_fn = plan_fn
        self.fill_fn = fill_fn

    def build(self, tensor: COOTensor, perm0: np.ndarray,
              root: int) -> CSFTensor:
        """Tree *root*, built inline."""
        plan = TreePlan(self, tensor, perm0, root)
        plan.plan()
        plan.allocate()
        plan.fill()
        return plan.tree()


def load_builder() -> TreeBuilder:
    """The builder of the shared library, building it if it is not cached
    (raises :class:`~repro.kernels.native.NativeUnavailable` when it
    cannot)."""
    from .native import load_library

    lib = load_library()
    plan_fn = lib.repro_csf_plan
    plan_fn.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 4 \
        + [ctypes.c_int64] + [ctypes.c_void_p] * 7
    fill_fn = lib.repro_csf_fill
    fill_fn.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p] * 6
    for fn in (plan_fn, fill_fn):
        fn.restype = ctypes.c_int
    return TreeBuilder(plan_fn, fill_fn)


def probe_tensor(shape, rng: np.random.Generator,
                 nnz: int = 400) -> COOTensor:
    """Uniform coordinates over *shape*, the second half repeating the
    first (duplicates), with a coordinate at every extent's top."""
    coords = np.vstack([rng.integers(0, extent, nnz) for extent in shape])
    coords[:, nnz // 2:] = coords[:, :nnz - nnz // 2]
    coords[:, 1] = np.asarray(shape) - 1
    return COOTensor(coords, rng.standard_normal(nnz), shape)


def self_check(builder: TreeBuilder) -> None:
    """Raise :class:`~repro.kernels.native.NativeUnavailable` unless every
    tree of every :data:`PROBE_SHAPES` probe equals the NumPy
    construction in bytes and dtype."""
    from .native import NativeUnavailable

    rng = np.random.default_rng(20170816)
    for shape in PROBE_SHAPES:
        tensor = probe_tensor(shape, rng)
        perm0 = tensor.permutation_lex()
        for root in range(tensor.nmodes):
            got = builder.build(tensor, perm0, root)
            want = CSFTensor._from_permutation(
                tensor, default_mode_order(tensor.nmodes, root),
                derive_permutation(tensor, perm0, root))
            if any(a.dtype != b.dtype or a.tobytes() != b.tobytes()
                   for a, b in zip(got.fids + got.fptr + [got.vals],
                                   want.fids + want.fptr + [want.vals])):
                raise NativeUnavailable(
                    f"CSF build self-check mismatch on shape {shape}, "
                    f"root {root}")


# ----------------------------------------------------------------------
# Process-wide resolution
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_STATE: dict[str, TreeBuilder | None] = {}


def _resolve() -> TreeBuilder | None:
    try:
        builder = load_builder()
        self_check(builder)
        return builder
    except Exception as exc:  # any failure means: build with NumPy
        reason = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"compiled CSF construction unavailable ({reason}); "
                  "CSF trees are built with NumPy", RuntimeWarning,
                  stacklevel=5)
    record_kernel_fallback("csf_build")
    return None


def tree_builder() -> TreeBuilder | None:
    """The process's compiled tree builder, or ``None`` to use NumPy.

    Resolved once per process (compile or cache load, then the
    self-check); every later call returns the same answer.
    """
    try:
        return _STATE["builder"]
    except KeyError:
        pass
    with _LOCK:
        if "builder" not in _STATE:
            _STATE["builder"] = _resolve()
    return _STATE["builder"]


def reset() -> None:
    """Forget the resolved builder so the next use resolves afresh."""
    with _LOCK:
        _STATE.clear()
