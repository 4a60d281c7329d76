"""The fused root-mode CSF MTTKRP kernel, compiled with the system C compiler.

``csf_root.c`` (shipped next to this module) is one recursive per-fiber
loop for the root kernel at any tensor order: each node's row is reduced
from its children's rows held in a small per-level scratch of
max-fan-out x rank, so no nnz x rank temporary is ever written (paper
Algorithm 3, the shape of SPLATT's C kernels).

**Sparse deep factors** (paper Section IV-C).  ``bind(..., leaf=rep)``
with a :class:`~repro.sparse.csr.CSRMatrix` or
:class:`~repro.sparse.hybrid.HybridFactor` changes only the leaf stage:
each fiber's row sums ``a * rep[k]`` over its non-zeros, touching the
dense prefix and the stored CSR-tail entries of row ``k`` only.  It
replays the SciPy path of
:func:`~repro.kernels.mttkrp_sparse.mttkrp_csf_root_repr` (leaf
aggregator duplicate summing, ``csr_matvecs`` and ``csr_matmat``, which
all accumulate from ``+0.0`` in the aggregator's row order), so the
result is byte-equal to it; that function stays the NumPy fallback and
test oracle.  The aggregator sorts each fiber's leaf ids, so the kernel
requires them ascending within a fiber, as every tree built by
:meth:`~repro.tensor.csf.CSFTensor.from_coo` has them, and raises
:class:`ValueError` for a tree whose leaf ids decrease inside a fiber.

**Bit identity is the contract.**  The NumPy sweep sums every fiber with
``np.add.reduceat`` along axis 0, which computes a segment as
``x[lo] + pairwise_sum(x[lo+1:hi])`` with NumPy's own pairwise scheme
(sequential below 8 rows, 8 strided accumulators up to 128 rows, a
recursive split above).  The C loop replays exactly that order, is built
with ``-ffp-contract=off`` and without ``-march=native`` or fast-math,
and so returns byte-equal results to the NumPy sweep.  The starting
value of NumPy's short sums (``-0.0`` or ``0.0``, which differs across
NumPy versions) is probed at load time and handed to the kernel.

**ISA variants.**  The one C body is compiled three times, under
``target("avx512f")``, ``target("avx2")`` and no attribute (only the
last on CPUs other than x86), with no global ``-m`` flag and no
intrinsics.  Every inner loop runs across the rank columns, so the
compiler vectorizes it at the variant's width without changing the
order of any column's sum: all variants return the same bytes.
:func:`load_kernels` returns every variant the CPU runs (the mask of
``row_solve.c``'s ``repro_row_solve_variants()``, the same library on
the same CPU), widest last, and :func:`root_kernel` serves the widest.

**Build and cache.**  At first use the sources are compiled with ``cc``
(else ``gcc``) from ``PATH`` into one library,
``$XDG_CACHE_HOME/repro/native/<hash>.so`` (``~/.cache`` when unset),
keyed by a hash of every source (``csf_root.c``, the ADMM row solve
and block loop ``row_solve.c``, see :mod:`repro.kernels.row_solve`, and
the CSF tree builder ``csf_build.c``, see :mod:`repro.kernels.csf_build`),
the compiler and its version, and the flags.  The library is written under a temporary
name and published with an atomic rename, so concurrent processes never
load a half-written file.  It is loaded with :mod:`ctypes`, which
releases the GIL for the call, so slabs run truly in parallel on a
thread pool.

**Fallback.**  Before first use, the widest variant is checked for byte
equality against the NumPy sweep on probe trees whose fan-outs reach
every branch of the pairwise sum, and against the SciPy sparse path with
CSR and CSR-H deep factors, at ranks (:data:`PROBE_RANKS`) that reach
the 8-wide and 4-wide vector bodies and their tails.  If there is no
compiler, the compile or load fails, or the self-check finds a single
differing bit, :func:`root_kernel` returns ``None`` for the rest of the
process, one ``RuntimeWarning`` and one ``kernel_fallback``
observability record are emitted, and callers use the NumPy sweep
instead.

**Input safety.**  The kernel never reads out of bounds: pointer arrays
must start at 0, increase strictly and end at the child count, and every
id must lie below the rows of its factor (or of the output at the root).
A sparse deep factor's row pointers must start at 0, never decrease and
end at its entry count, its columns must fit its CSR tail, and its
column permutation must be a permutation.  Violations raise
:class:`IndexError` — what the NumPy sweep raises for an out-of-range
id — instead of crashing the process.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..observability import record_kernel_fallback
from ..sparse.csr import CSRMatrix
from ..sparse.hybrid import HybridFactor
from ..tensor.csf import CSFTensor
from ..types import INDEX_DTYPE, MAX_MODES, VALUE_DTYPE, FactorList
from .mttkrp_sparse import mttkrp_csf_root_repr
from .row_solve import VARIANTS, supported_variants

#: C sources of the one shared library: this module's kernel, the ADMM
#: kernels of :mod:`repro.kernels.row_solve` and the CSF tree builder of
#: :mod:`repro.kernels.csf_build`.
SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("csf_root.c", "row_solve.c", "csf_build.c"))
#: Compilers tried in order, looked up on ``PATH``.
COMPILERS = ("cc", "gcc")
#: Portable flags: no ``-march=native``, no fast-math, no FMA contraction.
CFLAGS = ("-O3", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

#: Ranks of the self-check: below AVX2's vector width (1, 3), and the
#: 8-wide and 4-wide vector bodies with a 4-wide (12) or scalar (9, 17)
#: tail.
PROBE_RANKS = (1, 3, 8, 9, 12, 17)
#: Fan-outs of the self-check probe trees.  A node with ``k`` children
#: pairwise-sums ``k - 1`` rows, so these reach every branch: fewer than
#: 8 rows (including none), exactly 8, 8-128 with and without a
#: remainder, exactly 128, and one and several recursive splits.
PROBE_FANOUTS = (1, 2, 7, 8, 9, 16, 17, 128, 129, 130, 137, 257, 300)

_ERRORS = {1: "a fiber id is out of range of its factor",
           2: "malformed fptr (must start at 0, increase strictly and "
              "end at the child count)",
           5: "malformed sparse deep factor (row pointers, tail columns "
              "or column permutation)"}
#: ``csf_root.c`` codes for a fiber whose leaf ids decrease and for a
#: variant this CPU does not run.
_UNSORTED = 4
_BAD_VARIANT = 6


class NativeUnavailable(RuntimeError):
    """The compiled kernel cannot serve this process."""


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/native``, ``~/.cache`` when unset."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "native"


def find_compiler() -> str:
    """Absolute path of the system C compiler."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    raise NativeUnavailable("no C compiler (cc/gcc) on PATH")


def library_path(compiler: str) -> Path:
    """Cache path of the library built from the current sources."""
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True, timeout=60, check=True).stdout
    digest = hashlib.sha256()
    for part in (*(src.read_bytes() for src in SOURCES), compiler.encode(),
                 version.encode(), " ".join(CFLAGS).encode()):
        digest.update(part)
        digest.update(b"\0")
    return cache_dir() / f"{digest.hexdigest()[:24]}.so"


def compile_library(compiler: str, path: Path) -> None:
    """Compile the library to *path*, published by an atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so",
                               dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run([compiler, *CFLAGS, "-o", tmp,
                               *map(str, SOURCES)],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            raise NativeUnavailable(
                f"{compiler} exited {proc.returncode}: "
                f"{proc.stderr.strip()[:300]}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class _LeafRep(ctypes.Structure):
    """``leaf_rep_t`` of ``csf_root.c``: a CSR or CSR-H deep factor."""

    _fields_ = [("ndense", ctypes.c_int64), ("ntail", ctypes.c_int64)] \
        + [(name, ctypes.c_void_p)
           for name in ("dense", "indptr", "indices", "data", "perm")]


def load_library() -> ctypes.CDLL:
    """The shared library of every kernel, compiling it if not cached."""
    compiler = find_compiler()
    path = library_path(compiler)
    if path.exists():
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            pass  # a damaged cache entry: rebuild it below
    compile_library(compiler, path)
    return ctypes.CDLL(str(path))


def load_kernels() -> dict[str, RootKernel]:
    """Every variant this CPU runs, by name, widest last; builds the
    library if it is not cached (raises :class:`NativeUnavailable` when
    it cannot)."""
    lib = load_library()
    fn = lib.repro_csf_root
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 7 \
        + [ctypes.c_double, ctypes.POINTER(_LeafRep)]
    init = numpy_pairwise_init()
    return {name: RootKernel(fn, init, name)
            for name in supported_variants(lib)}


def _index_array(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


class RootKernel:
    """One compiled variant: ``bind`` one call's factors, then run trees."""

    def __init__(self, fn: Callable, init: float, variant: str):
        self._fn = fn
        self._id = VARIANTS.index(variant)
        #: Starting value of NumPy's short pairwise sums.
        self.init = float(init)
        #: ISA variant name (one of :data:`~repro.kernels.row_solve.
        #: VARIANTS`).
        self.variant = variant

    def bind(self, mode_order: Sequence[int], factors: FactorList,
             out: np.ndarray, leaf: CSRMatrix | HybridFactor | None = None
             ) -> Callable[[CSFTensor], None]:
        """A runner writing root rows of trees in *mode_order* into *out*.

        *out* must be a C-contiguous float64 ``(rows, rank)`` array; the
        runner overwrites the rows of the tree's root ids and leaves
        every other row alone, so slabs with disjoint roots may run
        concurrently into one *out*.  Factors are made C-contiguous
        once here (Fortran-ordered or strided views are copied).  With
        a CSR or CSR-H *leaf*, the deep factor is read from it and
        ``factors[mode_order[-1]]`` is not used.
        """
        mode_order = tuple(mode_order)
        nmodes = len(mode_order)
        if not 2 <= nmodes <= MAX_MODES:
            raise ValueError(f"the native kernel takes 2 to {MAX_MODES} "
                             f"modes, not {nmodes}")
        if out.dtype != VALUE_DTYPE or out.ndim != 2 \
                or not out.flags.c_contiguous or not out.flags.writeable:
            raise ValueError("out must be a writeable C-contiguous "
                             "float64 matrix")
        rank = int(out.shape[1])
        dense_modes = mode_order[1:] if leaf is None else mode_order[1:-1]
        mats = [np.ascontiguousarray(factors[m], dtype=VALUE_DTYPE)
                for m in dense_modes]
        for mat in mats:
            if mat.ndim != 2 or mat.shape[1] != rank:
                raise ValueError("every factor needs the output's "
                                 f"{rank} columns")
        rows = [out.shape[0]] + [m.shape[0] for m in mats]
        fac_ptrs = [0] + [m.ctypes.data for m in mats]
        leaf_ref = None
        if leaf is not None:
            leaf_ref, keep = _leaf_rep(leaf, rank)
            mats += keep
            rows.append(leaf.shape[0])
            fac_ptrs.append(0)
        dims = np.array(rows, dtype=INDEX_DTYPE)
        fac_ptrs = np.array(fac_ptrs, dtype=np.uintp)
        fn, init, variant_id = self._fn, self.init, self._id

        def run(tree: CSFTensor) -> None:
            if tuple(tree.mode_order) != mode_order:
                raise ValueError("tree mode order differs from the bound "
                                 "factors' order")
            if rank == 0:
                return
            fids = [_index_array(a) for a in tree.fids]
            fptr = [_index_array(a) for a in tree.fptr]
            vals = np.ascontiguousarray(tree.vals, dtype=VALUE_DTYPE)
            nnodes = np.array([a.shape[0] for a in fids], dtype=INDEX_DTYPE)
            if len(fids) != nmodes or len(fptr) != nmodes - 1 \
                    or vals.shape[0] != nnodes[-1] \
                    or any(p.shape[0] != n + 1
                           for p, n in zip(fptr, nnodes)):
                raise IndexError("CSF level arrays have inconsistent "
                                 "lengths")
            ptrs = np.array([a.ctypes.data for a in fptr + fids],
                            dtype=np.uintp)
            code = fn(variant_id, nmodes, rank, nnodes.ctypes.data,
                      dims.ctypes.data, ptrs.ctypes.data,
                      ptrs.ctypes.data + ptrs.itemsize * (nmodes - 1),
                      vals.ctypes.data, fac_ptrs.ctypes.data,
                      out.ctypes.data, init, leaf_ref)
            if code == _UNSORTED:
                raise ValueError("a sparse deep factor needs each fiber's "
                                 "leaf ids in ascending order, as "
                                 "CSFTensor.from_coo builds them")
            if code == 3:
                raise MemoryError("native CSF kernel scratch")
            if code == _BAD_VARIANT:
                raise ValueError(f"this CPU does not run the {self.variant} "
                                 "variant")
            if code:
                raise IndexError(_ERRORS.get(code, f"native error {code}"))

        run.factors = mats  # fac_ptrs and leaf_ref point into these
        return run


def _leaf_rep(leaf: CSRMatrix | HybridFactor, rank: int
              ) -> tuple[object, list[np.ndarray]]:
    """A pointer to the ``leaf_rep_t`` of a CSR/CSR-H deep factor, and
    the arrays it points into."""
    if isinstance(leaf, HybridFactor):
        dense, csr, perm = leaf.dense_part, leaf.csr_part, leaf.perm
    elif isinstance(leaf, CSRMatrix):
        dense, csr = np.empty((leaf.shape[0], 0)), leaf
        perm = np.arange(rank, dtype=INDEX_DTYPE)
    else:
        raise TypeError(f"unsupported deep-factor type {type(leaf)!r}")
    if leaf.shape[1] != rank:
        raise ValueError(f"the deep factor needs the output's {rank} "
                         "columns")
    dense = np.ascontiguousarray(dense, dtype=VALUE_DTYPE)
    arrays = [dense, _index_array(csr.indptr), _index_array(csr.indices),
              np.ascontiguousarray(csr.data, dtype=VALUE_DTYPE),
              _index_array(perm)]
    _, indptr, indices, data, perm = arrays
    if dense.ndim != 2 or dense.shape[0] != leaf.shape[0] \
            or indptr.shape != (leaf.shape[0] + 1,) \
            or indices.shape != data.shape or perm.shape != (rank,):
        raise IndexError(_ERRORS[5])
    rep = _LeafRep(dense.shape[1], indices.shape[0],
                   *(a.ctypes.data for a in arrays))
    return ctypes.pointer(rep), arrays


# ----------------------------------------------------------------------
# Self-check
# ----------------------------------------------------------------------
def numpy_pairwise_init() -> float:
    """Starting value of NumPy's short sums: ``-0.0`` or ``0.0``.

    ``reduceat`` of two ``-0.0`` rows is ``-0.0 + (init + -0.0)``: signed
    zero exactly when ``init`` is ``-0.0``.
    """
    pair = np.add.reduceat(np.array([[-0.0], [-0.0]]), [0], axis=0)
    return -0.0 if np.signbit(pair[0, 0]) else 0.0


def probe_tree(level_fanouts: Sequence[Sequence[int]],
               rng: np.random.Generator, dim: int = 50) -> CSFTensor:
    """A tree whose level-``l`` nodes cycle through ``level_fanouts[l]``.

    Root ids are a permutation (they address output rows); deeper ids
    are random below *dim*.  Values span twelve decades and include
    signed zeros, so any change of summation order shows in the bytes.
    """
    nroots = len(level_fanouts[0])
    counts, fptr = [nroots], []
    for fans in level_fanouts:
        kids = np.resize(np.asarray(fans, dtype=INDEX_DTYPE), counts[-1])
        fptr.append(np.concatenate([[0], np.cumsum(kids)]).astype(
            INDEX_DTYPE))
        counts.append(int(kids.sum()))
    fids = [rng.permutation(nroots).astype(INDEX_DTYPE)]
    fids += [rng.integers(0, dim, n).astype(INDEX_DTYPE)
             for n in counts[1:]]
    vals = signed_values(rng, counts[-1])
    shape = (nroots,) + (dim,) * (len(counts) - 1)
    return CSFTensor(shape, tuple(range(len(counts))), fids, fptr, vals)


def signed_values(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Signed values over twelve decades with some exact ``-0.0``/``0.0``."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    flat = vals.reshape(-1)
    flat[::97] = -0.0
    flat[1::89] = 0.0
    return vals


def sorted_leaves(tree: CSFTensor) -> CSFTensor:
    """*tree* with each fiber's leaf ids ascending, as ``from_coo`` builds.

    Values stay where they are, so runs of equal ids in a fiber sum
    whatever values land in them.
    """
    ids = tree.fids[-1]
    fiber = np.repeat(np.arange(tree.fptr[-1].shape[0] - 1),
                      np.diff(tree.fptr[-1]))
    fids = list(tree.fids[:-1]) + [ids[np.lexsort((ids, fiber))]]
    return CSFTensor(tree.shape, tree.mode_order, fids, tree.fptr,
                     tree.vals)


def sparse_values(rng: np.random.Generator, rows: int,
                  rank: int) -> np.ndarray:
    """:func:`signed_values` with column 0 kept and 2/3 of the rest zeroed.

    Column 0 is then denser than the average column, so a
    :class:`HybridFactor` of it has a dense prefix at any rank above 1.
    """
    mat = signed_values(rng, rows, rank)
    drop = rng.random((rows, rank)) < 2 / 3
    drop[:, 0] = False
    mat[drop] = 0.0
    return mat


def self_check(kernel: RootKernel) -> None:
    """Raise :class:`NativeUnavailable` unless *kernel* is byte-equal.

    Compares against the monolithic NumPy sweep on two 3-mode probes,
    one with :data:`PROBE_FANOUTS` at the fiber level and one at the
    root level, and a 4-mode probe; then against the SciPy path of
    :func:`~repro.kernels.mttkrp_sparse.mttkrp_csf_root_repr` with CSR
    and CSR-H deep factors, on a 3-mode probe with :data:`PROBE_FANOUTS`
    at the leaf level and its leaf ids sorted per fiber, as ``from_coo``
    builds them (runs of equal ids included).  Both at every rank of
    :data:`PROBE_RANKS`.
    """
    from .mttkrp_csf import mttkrp_csf_root

    rng = np.random.default_rng(20170814)
    fans = PROBE_FANOUTS
    trees = [probe_tree([(len(fans),), fans], rng),
             probe_tree([fans, (1, 2)], rng),
             probe_tree([(1, 9, 130), (1, 2), (1, 8, 129)], rng)]
    for tree in trees:
        for rank in PROBE_RANKS:
            factors = [signed_values(rng, n, rank) for n in tree.shape]
            want = mttkrp_csf_root(tree, factors)
            got = np.zeros_like(want)
            kernel.bind(tree.mode_order, factors, got)(tree)
            if got.tobytes() != want.tobytes():
                raise NativeUnavailable(
                    f"self-check mismatch ({kernel.variant}) on a "
                    f"{tree.nmodes}-mode probe at rank {rank}")
    tree = sorted_leaves(probe_tree([(1, 9, 130), fans], rng))
    for rank in PROBE_RANKS:
        factors = [signed_values(rng, n, rank) for n in tree.shape]
        deep = sparse_values(rng, tree.shape[-1], rank)
        for leaf in (CSRMatrix.from_dense(deep), HybridFactor(deep)):
            want = mttkrp_csf_root_repr(tree, factors, leaf)
            got = np.zeros_like(want)
            kernel.bind(tree.mode_order, factors, got, leaf=leaf)(tree)
            if got.tobytes() != want.tobytes():
                raise NativeUnavailable(
                    f"self-check mismatch ({kernel.variant}) with a "
                    f"{type(leaf).__name__} deep factor at rank {rank}")


# ----------------------------------------------------------------------
# Process-wide resolution
# ----------------------------------------------------------------------
_LOCK = threading.Lock()
_STATE: dict[str, RootKernel | None] = {}


def _resolve() -> RootKernel | None:
    try:
        kernel = list(load_kernels().values())[-1]
        self_check(kernel)
        return kernel
    except Exception as exc:  # any failure means: use the NumPy sweep
        reason = f"{type(exc).__name__}: {exc}"
    warnings.warn(f"native CSF kernel unavailable ({reason}); root-mode "
                  "MTTKRP uses the NumPy sweep", RuntimeWarning,
                  stacklevel=4)
    record_kernel_fallback("csf_root")
    return None


def root_kernel() -> RootKernel | None:
    """The process's compiled root kernel, or ``None`` to use NumPy.

    Resolved once per process (compile or cache load, the widest variant
    the CPU runs, then the self-check); every later call returns the
    same answer.
    """
    try:
        return _STATE["kernel"]
    except KeyError:
        pass
    with _LOCK:
        if "kernel" not in _STATE:
            _STATE["kernel"] = _resolve()
    return _STATE["kernel"]


def reset() -> None:
    """Forget the resolved kernel so the next use resolves afresh."""
    with _LOCK:
        _STATE.clear()
