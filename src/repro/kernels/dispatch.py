"""MTTKRP dispatch and the one engine used by the AO-ADMM driver.

:func:`mttkrp` is the stateless convenience entry point.
:class:`MTTKRPEngine` is what the factorization loop uses, in core and
out of core alike: it iterates over the slabs of a mode, either the
slab tilings of its per-mode CSF trees (built once — the tensor's
pattern is static; see :mod:`repro.tensor.tiling`) or the slabs of a
sharded store streamed under a byte budget (:mod:`repro.tensor.ooc`).
It owns the per-mode factor *representations* (rebuilt when a factor
changes — the factors' sparsity is dynamic, Section IV-C) and one
pooled output buffer per mode, and runs the compiled root kernel over
the slabs with the deep factor dense, CSR or CSR-H.  It records
per-call statistics for the benchmark harness and the machine model,
and mirrors every call — including memoized ``method="csf"`` hits —
into :mod:`repro.observability` when observability is enabled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ..config import SPARSITY_THRESHOLD
from ..observability import (
    is_enabled,
    record_cache_event,
    record_mttkrp_call,
    record_representation,
    record_tiling,
    span,
)
from ..parallel.executor import ExecutorBase, resolve_executor
from ..sparse.analysis import choose_representation, density
from ..sparse.csr import CSRMatrix
from ..sparse.hybrid import HybridFactor
from ..tensor.coo import COOTensor
from ..tensor.csf import AllModeCSF, CSFTensor
from ..tensor.ooc import SlabCache, SlabStreamer
from ..tensor.store import ShardedTensorStore, resolve_byte_budget
from ..tensor.tiling import CSFTiling
from ..types import VALUE_DTYPE, FactorList
from ..validation import check_mode, require
from .autotune import BackendAutotuner, resolve_tune_mode
from .mttkrp_coo import mttkrp_coo
from .mttkrp_csf import _upward_to_level, mttkrp_csf
from .mttkrp_sparse import (
    FactorRepresentation,
    counted_nnz,
    leaf_aggregator,
    leaf_counts,
    mttkrp_csf_root_repr,
    representation_name,
)
from .native import root_kernel
from .workspace import KernelWorkspace

#: Factor-representation policies for :class:`MTTKRPEngine`.
ReprPolicy = Literal["dense", "csr", "hybrid", "auto"]

#: Memoized trees for the testing-only ``method="csf"`` path, keyed by
#: ``(id(tensor), mode)``.  Entries pin the source ``coords``/``vals``
#: arrays so the identity check below cannot be fooled by ``id`` reuse
#: after garbage collection; the cache is small and FIFO-bounded.
_CSF_METHOD_CACHE: dict[tuple[int, int],
                        tuple[np.ndarray, np.ndarray, CSFTensor]] = {}
_CSF_METHOD_CACHE_MAX = 8

#: Memoized model-tuned execution plans for the stateless
#: ``mttkrp(method="auto")`` path, keyed by ``(id(tensor), mode, rank)``
#: with the same array-pinning identity check as the tree memo above.
_AUTO_PLAN_CACHE: dict[tuple[int, int, int],
                       tuple[np.ndarray, np.ndarray, CSFTiling,
                             KernelWorkspace]] = {}
_AUTO_PLAN_CACHE_MAX = 8


def _csf_for_method(tensor: COOTensor, mode: int) -> CSFTensor:
    """Build (or reuse) a mode-rooted tree for ``mttkrp(..., method="csf")``.

    This path exists for testing and one-off calls; sustained use should
    go through :class:`MTTKRPEngine` / :class:`AllModeCSF`, which amortize
    the ``O(nnz log nnz)`` sort properly.  The memo here merely keeps
    repeated test calls from re-sorting the same tensor on every call.
    """
    key = (id(tensor), mode)
    hit = _CSF_METHOD_CACHE.get(key)
    if hit is not None and hit[0] is tensor.coords and hit[1] is tensor.vals:
        # A memoized tree used to make the call's stats vanish entirely;
        # the registry keeps every invocation visible (cache_hit counter).
        record_cache_event("mttkrp_csf_method", hit=True)
        return hit[2]
    record_cache_event("mttkrp_csf_method", hit=False)
    order = None if mode == 0 else (
        (mode,) + tuple(m for m in range(tensor.nmodes) if m != mode))
    tree = CSFTensor.from_coo(tensor, mode_order=order)
    if len(_CSF_METHOD_CACHE) >= _CSF_METHOD_CACHE_MAX:
        _CSF_METHOD_CACHE.pop(next(iter(_CSF_METHOD_CACHE)))
    _CSF_METHOD_CACHE[key] = (tensor.coords, tensor.vals, tree)
    return tree


def _auto_plan(tensor: COOTensor, mode: int, rank: int
               ) -> tuple[CSFTensor, CSFTiling, KernelWorkspace]:
    """Build (or reuse) the model-tuned plan for one stateless auto call.

    Every candidate plan is the same csf-family sweep, so the selection
    is bit-invisible: ``method="auto"`` equals ``method="csf"`` exactly.
    The plan's slabs run inline (the ``serial`` executor the call log
    records).
    """
    key = (id(tensor), mode, rank)
    hit = _AUTO_PLAN_CACHE.get(key)
    if hit is not None and hit[0] is tensor.coords and hit[1] is tensor.vals:
        record_cache_event("mttkrp_auto_plan", hit=True)
        return hit[2].csf, hit[2], hit[3]
    record_cache_event("mttkrp_auto_plan", hit=False)
    tree = _csf_for_method(tensor, mode)
    tuner = BackendAutotuner(mode="model")
    decision = tuner.decide_tree(tree, mode, rank)
    tiling = CSFTiling(tree, slab_nnz_target=decision.slab_nnz_target)
    ws = KernelWorkspace(tiling)
    if len(_AUTO_PLAN_CACHE) >= _AUTO_PLAN_CACHE_MAX:
        _AUTO_PLAN_CACHE.pop(next(iter(_AUTO_PLAN_CACHE)))
    _AUTO_PLAN_CACHE[key] = (tensor.coords, tensor.vals, tiling, ws)
    return tree, tiling, ws


def mttkrp(tensor: COOTensor | CSFTensor | AllModeCSF, factors: FactorList,
           mode: int, method: str = "auto") -> np.ndarray:
    """Compute MTTKRP for *mode* with the requested *method*.

    ``method="auto"`` (the default) routes COO input through the
    model-tuned slab-tiled CSF kernels — the same bit-identity family as
    ``method="csf"``, so the tuner's slab choice (and the ``REPRO_TUNE``
    mode, including ``off``, which degrades to the untiled ``csf``
    path) never changes a single output bit.  CSF inputs always use the
    CSF root kernel; ``method="coo"`` forces the vectorized COO kernel
    (a different summation order — its own comparison family).
    """
    if isinstance(tensor, AllModeCSF):
        return mttkrp_csf(tensor.csf(mode), factors, mode)
    if isinstance(tensor, CSFTensor):
        return mttkrp_csf(tensor, factors, mode)
    require(isinstance(tensor, COOTensor), "unsupported tensor type")
    if method == "coo":
        return mttkrp_coo(tensor, factors, mode)
    if method == "auto" and resolve_tune_mode() != "off":
        rank = int(np.asarray(factors[0]).shape[1])
        tree, tiling, ws = _auto_plan(tensor, mode, rank)
        start = time.perf_counter()
        with span("mttkrp", mode=mode, method="auto", kernel="numpy"):
            out = mttkrp_csf(tree, factors, mode, tiling=tiling,
                             workspace=ws, executor="serial")
        if is_enabled():
            record_mttkrp_call(MTTKRPCallStats(
                mode=mode, leaf_mode=tree.mode_order[-1],
                representation="dense",
                gathered_nnz=tree.nnz * rank,
                tensor_nnz=tree.nnz,
                slab_count=tiling.slab_count,
                seconds=time.perf_counter() - start,
                executor="serial",
            ), rank=rank)
        return out
    if method in ("auto", "csf"):
        tree = _csf_for_method(tensor, mode)
        start = time.perf_counter()
        with span("mttkrp", mode=mode, method="csf", kernel="numpy"):
            out = mttkrp_csf(tree, factors, mode)
        if is_enabled():
            record_mttkrp_call(MTTKRPCallStats(
                mode=mode, leaf_mode=tree.mode_order[-1],
                representation="dense",
                gathered_nnz=tree.nnz * int(np.asarray(factors[0]).shape[1]),
                tensor_nnz=tree.nnz,
                seconds=time.perf_counter() - start,
            ), rank=int(np.asarray(factors[0]).shape[1]))
        return out
    raise ValueError(f"unknown MTTKRP method {method!r}")


@dataclass
class MTTKRPCallStats:
    """Bookkeeping for one MTTKRP invocation."""

    mode: int
    leaf_mode: int
    representation: str
    gathered_nnz: int
    tensor_nnz: int
    #: Slabs the call was decomposed into (1 = monolithic).
    slab_count: int = 1
    #: Fresh output and workspace bytes allocated during the call (0
    #: after warm-up on a static pattern — the zero-allocation
    #: guarantee).
    bytes_allocated: int = 0
    #: Wall-clock seconds of the kernel call.
    seconds: float = 0.0
    #: The engine's executor (``serial``/``thread``).
    executor: str = "thread"
    #: Threads that ran the call's slabs, at most one per slab: 1 for
    #: calls that run inline (the ``serial`` executor, one-slab and
    #: streamed calls, and the SciPy sparse path).
    workers: int = 1
    #: Sweep that computed the call: ``native`` (the compiled kernel of
    #: :mod:`repro.kernels.native`) or ``numpy`` (its fallback).
    kernel: str = "numpy"


class MTTKRPEngine:
    """One MTTKRP engine over the slabs of an in-core or a sharded tensor.

    Every call takes the deep factor's representation, zeroes a pooled
    per-mode output buffer, runs the root kernel over the mode's slabs
    and writes one :class:`MTTKRPCallStats`.  The slabs come from one of
    two sources:

    * **in core** (a :class:`~repro.tensor.coo.COOTensor`): the
      :class:`~repro.tensor.tiling.CSFTiling` slabs of the per-mode CSF
      trees (built once — the tensor's pattern is static), fanned out
      through the executor;
    * **out of core** (a :class:`~repro.tensor.store.ShardedTensorStore`):
      the store's slabs, streamed inline through a
      :class:`~repro.tensor.ooc.SlabCache` bounded by
      ``max_bytes_in_core``, the next slab's read prefetched through the
      executor while the current one computes.

    **Bit-identity.**  Slabs split trees at root-slice boundaries, so no
    fiber straddles two slabs and every slab writes a disjoint set of
    output rows: the result is bit-identical for any slab count, thread
    count, executor, byte budget, eviction schedule or prefetch timing.

    Parameters
    ----------
    tensor:
        The sparse tensor (COO; one CSF tree per mode is built lazily),
        or a sharded store whose per-mode trees are already on disk.
    repr_policy:
        ``"dense"`` — always dense factors (the paper's DENSE baseline);
        ``"csr"`` / ``"hybrid"`` — force that structure whenever the factor
        is below the density threshold; ``"auto"`` — apply
        :func:`repro.sparse.analysis.choose_representation`.  Sparse
        deep factors need the compiled kernel out of core; without it a
        store computes dense.
    sparsity_threshold:
        Density below which a factor may be stored sparse (paper: 20%).
    tol:
        Magnitude at or below which a factor entry counts as zero.
    csf_allocation:
        ``"all"`` builds one tree per mode (SPLATT's ALLMODE — fastest);
        ``"one"`` keeps a single tree and serves the other modes with the
        internal/leaf kernels (SPLATT's memory-lean ONEMODE policy, in
        core only; it always computes dense).
    threads:
        Thread count for the in-core slab fan-out (``None`` = auto via
        ``REPRO_NUM_THREADS`` / CPU count).  Results are bit-identical
        for any value.
    slab_nnz_target:
        Non-zeros per in-core slab (``None`` =
        :data:`repro.config.DEFAULT_SLAB_NNZ`).  A store's slabs were
        fixed when it was sharded.
    executor:
        Execution backend: ``"serial"``, ``"thread"``, or an
        :class:`~repro.parallel.executor.ExecutorBase` instance.
        ``None`` resolves ``REPRO_EXECUTOR`` (default ``thread``).
        In-core slabs fan out through it: inline under ``serial``
        whatever *threads* says, over a reused pool of *threads* workers
        under ``thread``.  Out of core it prefetches slab reads.  It is
        recorded in :attr:`call_log`.
    max_bytes_in_core:
        Out of core only: the slab cache's byte budget (``None`` = the
        store's own budget, else ``REPRO_MAX_BYTES_IN_CORE``).

    Notes
    -----
    MTTKRP outputs are written into pooled per-mode buffers: the
    returned array is valid until the **next** call for the same mode.
    Every driver in this repository consumes the output before then;
    copy it if you need it to survive.
    """

    def __init__(self, tensor: "COOTensor | ShardedTensorStore",
                 repr_policy: ReprPolicy = "dense",
                 sparsity_threshold: float = SPARSITY_THRESHOLD,
                 tol: float = 0.0,
                 csf_allocation: str = "all",
                 threads: int | None = 1,
                 slab_nnz_target: int | None = None,
                 executor: "str | ExecutorBase | None" = None,
                 max_bytes_in_core: int | None = None):
        require(repr_policy in ("dense", "csr", "hybrid", "auto"),
                f"unknown representation policy {repr_policy!r}")
        require(csf_allocation in ("all", "one"),
                f"unknown CSF allocation {csf_allocation!r}")
        self._executor = resolve_executor(executor)
        if isinstance(tensor, ShardedTensorStore):
            require(csf_allocation == "all",
                    "a sharded store holds one tree per mode")
            self.store: ShardedTensorStore | None = tensor
            self.trees = None
            if max_bytes_in_core is None:
                max_bytes_in_core = (tensor.max_bytes_in_core
                                     or resolve_byte_budget())
            #: One residency set shared by every mode — the byte budget
            #: is a process-level promise, not a per-mode one.
            self.cache: SlabCache | None = SlabCache(max_bytes_in_core)
            self._streamer = SlabStreamer(tensor, self.cache,
                                          executor=self._executor)
        else:
            self.store = None
            self.trees = AllModeCSF(tensor)
            self.cache = None
        self.csf_allocation = csf_allocation
        self.repr_policy: ReprPolicy = repr_policy
        self.sparsity_threshold = float(sparsity_threshold)
        self.tol = float(tol)
        self.threads = threads
        self.slab_nnz_target = slab_nnz_target
        #: Per-root-mode slab targets installed by :meth:`apply_tuning`
        #: (they take precedence over the engine-wide ``slab_nnz_target``).
        self._tuned_targets: dict[int, int] = {}
        #: The autotuner's :class:`~repro.kernels.autotune.TuningReport`
        #: (``None`` until :meth:`apply_tuning` runs).
        self.tuning = None
        self._reps: dict[int, FactorRepresentation] = {}
        self._rep_names: dict[int, str] = {}
        #: Per-tree SpGEMM leaf aggregators, built only when the NumPy
        #: sparse path serves (no compiled kernel in this process).
        self._aggregators: dict[int, object] = {}
        #: Per-tree leaf-id counts behind ``gathered_nnz``.
        self._leaf_counts: dict[int, np.ndarray] = {}
        #: Static per-tree decompositions, keyed by the tree's root mode.
        self._tilings: dict[int, CSFTiling] = {}
        self._workspaces: dict[int, KernelWorkspace] = {}
        #: Pooled output buffers, one per target mode, and the bytes
        #: they have ever allocated.
        self._out: dict[int, np.ndarray] = {}
        self._out_bytes = 0
        #: Stats of every MTTKRP call, in order.
        self.call_log: list[MTTKRPCallStats] = []

    @property
    def nmodes(self) -> int:
        return (self.store or self.trees).nmodes

    @property
    def executor(self) -> ExecutorBase:
        """The executor serving the slabs (and the background I/O)."""
        return self._executor

    @property
    def executor_name(self) -> str:
        """Name of the executor currently serving the slabs."""
        return self._executor.name

    @property
    def max_bytes_in_core(self) -> int | None:
        """The slab cache's byte budget (``None`` in core or unbounded)."""
        return None if self.cache is None else self.cache.max_bytes_in_core

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop resident slabs (idempotent; a store stays open)."""
        if self.cache is not None:
            self.cache.clear()

    def __enter__(self) -> "MTTKRPEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Tiling / workspace management (static: one per tree, built lazily)
    # ------------------------------------------------------------------
    def apply_tuning(self, report) -> None:
        """Install per-mode slab targets from an autotuner report.

        Tilings are static (built once, reused for the whole
        factorization), so tuning must land before the first
        :meth:`tiling` call for any mode — the autotuner's
        ``tune_engine`` and :func:`make_engine` both respect that.
        Selection is performance-only: every candidate the tuner
        considers is the same csf-family sweep, so the installed
        targets never change a single output bit.
        """
        require(not self._tilings,
                "apply_tuning must run before any tiling is built "
                "(slab decompositions are static)")
        self._tuned_targets = dict(report.slab_targets())
        self.tuning = report

    def tiling(self, root_mode: int) -> CSFTiling:
        """The slab tiling of the in-core tree rooted at *root_mode*."""
        tiling = self._tilings.get(root_mode)
        if tiling is None:
            target = self._tuned_targets.get(root_mode,
                                             self.slab_nnz_target)
            tiling = CSFTiling(self.trees.csf(root_mode),
                               slab_nnz_target=target)
            self._tilings[root_mode] = tiling
            record_tiling(tiling, root_mode)
        return tiling

    def workspace(self, root_mode: int) -> KernelWorkspace:
        """The NumPy sweeps' workspace of the tree rooted at *root_mode*."""
        ws = self._workspaces.get(root_mode)
        if ws is None:
            ws = KernelWorkspace(self.tiling(root_mode))
            self._workspaces[root_mode] = ws
        return ws

    def workspace_bytes(self) -> int:
        """Bytes the output buffers and workspaces have ever allocated."""
        return self._out_bytes + sum(ws.bytes_allocated
                                     for ws in self._workspaces.values())

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------
    def update_factor(self, mode: int, factor: np.ndarray) -> str:
        """Re-derive the representation of *mode*'s factor; returns its name.

        Called by the driver after every factor update — this is where the
        dynamic sparsity of Section IV-C enters.  The ``O(I F)``
        construction cost is accepted exactly as in the paper (amortized
        over the ADMM iterations of the following outer sweep).
        """
        mode = check_mode(mode, self.nmodes)
        name = self._decide(factor)
        if name == "csr":
            rep: FactorRepresentation = CSRMatrix.from_dense(
                factor, tol=self.tol)
        elif name == "csr-h":
            rep = HybridFactor(factor, tol=self.tol)
        else:
            rep = np.ascontiguousarray(factor)
        self._reps[mode] = rep
        self._rep_names[mode] = name
        record_representation(mode, name, rep)
        return name

    def representation(self, mode: int) -> str:
        """Current representation name of *mode* (default ``"dense"``)."""
        return self._rep_names.get(mode, "dense")

    def _decide(self, factor: np.ndarray) -> str:
        # Out of core only the compiled kernel reads sparse deep factors.
        if self.repr_policy == "dense" or (self.store is not None
                                           and root_kernel() is None):
            return "dense"
        dens = density(factor, self.tol)
        if dens >= self.sparsity_threshold:
            return "dense"
        if self.repr_policy == "csr":
            return "csr"
        if self.repr_policy == "hybrid":
            return "csr-h"
        choice = choose_representation(
            factor, self.tol, self.sparsity_threshold)
        return {"dense": "dense", "csr": "csr", "hybrid": "csr-h"}[choice]

    # ------------------------------------------------------------------
    # The kernel entry point
    # ------------------------------------------------------------------
    def mttkrp(self, factors: FactorList, mode: int) -> np.ndarray:
        """MTTKRP for *mode*, honoring the deep factor's representation."""
        mode = check_mode(mode, self.nmodes)
        rank = int(np.asarray(factors[0]).shape[1])
        start = time.perf_counter()
        pooled = self.workspace_bytes()
        # ONEMODE serves every mode from the mode-0 tree and stays dense.
        root = mode if self.csf_allocation == "all" else 0
        if self.store is not None:
            order, nnz = self.store.mode_order(root), self.store.nnz
        else:
            tree = self.trees.csf(root)
            order, nnz = tree.mode_order, tree.nnz
        rep = (self._reps.get(order[-1])
               if self.csf_allocation == "all" else None)
        if isinstance(rep, np.ndarray):
            rep = None
        rep_name = "dense" if rep is None else representation_name(rep)
        kernel = root_kernel() if root == mode else None
        kernel_name = "numpy" if kernel is None else "native"
        out = self._out_buffer(mode, rank)
        with span("mttkrp", mode=mode, representation=rep_name,
                  kernel=kernel_name):
            slab_count = self._sweep(mode, order, factors, out, rep,
                                     kernel)
        if rep is None:
            gathered = nnz * rank
        else:
            gathered = counted_nnz(rep, self._counts(root))
        stats = MTTKRPCallStats(
            mode=mode, leaf_mode=order[-1], representation=rep_name,
            gathered_nnz=gathered, tensor_nnz=nnz,
            slab_count=slab_count,
            bytes_allocated=self.workspace_bytes() - pooled,
            seconds=time.perf_counter() - start,
            executor=self._executor.name,
            # Streamed slabs run inline; the executor only prefetches.
            workers=(1 if self.store is not None
                     else self._executor.workers(slab_count, self.threads)),
            kernel=kernel_name)
        self.call_log.append(stats)
        record_mttkrp_call(stats, rank=rank)
        return out

    def _counts(self, root: int) -> np.ndarray:
        """Leaf-id counts of the tree rooted at *root* (see ``_sweep``)."""
        counts = self._leaf_counts.get(root)
        if counts is None:
            counts = self._leaf_counts[root] = leaf_counts(
                self.trees.csf(root))
        return counts

    def _out_buffer(self, mode: int, rank: int) -> np.ndarray:
        """The pooled output matrix of *mode*, zeroed."""
        shape = ((self.store or self.trees.tensor).shape[mode], rank)
        out = self._out.get(mode)
        if out is None or out.shape != shape:
            out = self._out[mode] = np.empty(shape, dtype=VALUE_DTYPE)
            self._out_bytes += out.nbytes
        out.fill(0.0)
        return out

    def _sweep(self, mode: int, order: tuple[int, ...],
               factors: FactorList, out: np.ndarray,
               rep: FactorRepresentation | None, kernel) -> int:
        """Write *mode*'s MTTKRP into *out*; returns the slab count.

        The compiled root kernel runs slab by slab, with the deep factor
        read through *rep* when it is sparse.  Without it the NumPy
        fallbacks serve: per streamed slab the upward sweep, in core the
        tiled sweeps of :func:`mttkrp_csf` or, for a sparse deep factor,
        the SciPy path over the whole tree.
        """
        root = order[0]
        run = (None if kernel is None
               else kernel.bind(order, factors, out, leaf=rep))
        if self.store is not None:
            # A sparse call's gathered_nnz needs the tree's leaf counts:
            # out of core they add up over the first sweep that needs them.
            counts = (None if rep is None or root in self._leaf_counts
                      else np.zeros(self.store.shape[order[-1]],
                                    dtype=np.int64))
            for slab in self._streamer.iter_mode(mode):
                tree = slab.tree
                if run is not None:
                    run(tree)
                else:
                    out[tree.fids[0]] = _upward_to_level(tree, factors, 0)
                if counts is not None:
                    counts += leaf_counts(tree)
            if counts is not None:
                self._leaf_counts[root] = counts
            return self.store.slab_count(mode)
        tiling = self.tiling(root)
        if run is not None:
            self._executor.parallel_for(lambda slab: run(slab.tree),
                                        tiling.slabs, threads=self.threads)
            return tiling.slab_count
        if rep is not None:
            agg = self._aggregators.get(root)
            if agg is None:
                # One-time per tree: the tensor pattern is static.
                agg = self._aggregators[root] = leaf_aggregator(tiling.csf)
            np.copyto(out, mttkrp_csf_root_repr(tiling.csf, factors, rep,
                                                aggregator=agg))
            return 1
        mttkrp_csf(tiling.csf, factors, mode, tiling=tiling,
                   workspace=self.workspace(root), threads=self.threads,
                   executor=self._executor, out=out)
        return tiling.slab_count


def make_engine(tensor,
                repr_policy: ReprPolicy = "dense",
                sparsity_threshold: float = SPARSITY_THRESHOLD,
                tol: float = 0.0,
                csf_allocation: str = "all",
                threads: int | None = 1,
                slab_nnz_target: int | None = None,
                executor: "str | ExecutorBase | None" = None,
                max_bytes_in_core: int | None = None,
                rank: int | None = None,
                tune: str | None = None) -> MTTKRPEngine:
    """Build the MTTKRP engine for any ``TensorSource``.

    The single dispatch point the drivers use:

    * :class:`~repro.tensor.store.ShardedTensorStore` → streamed slabs
      under ``max_bytes_in_core`` (out of core);
    * :class:`~repro.tensor.csf.CSFTensor` → expanded back to COO (the
      engine re-sorts per mode anyway) and handled below;
    * :class:`~repro.tensor.coo.COOTensor` → in-core slabs, with the
      trees the engine serves from built eagerly: every tree under
      ``csf_allocation="all"`` (fanned out over the engine's executor
      on its ``threads``), only the mode-0 tree under ``"one"`` (which
      is also the only tree the autotuner then tunes).

    ``max_bytes_in_core`` only influences the out-of-core path; in-core
    tensors are already resident and the knob is ignored for them.

    When *rank* is given, *slab_nnz_target* is not (an explicit target
    is a user pin), and the resolved tune mode (*tune* argument, else
    ``REPRO_TUNE``, else ``"model"``) is not ``"off"``, the in-core
    engine's per-mode slab targets are chosen by the
    :class:`~repro.kernels.autotune.BackendAutotuner` — selection is
    performance-only and bit-invisible (csf family).  A store is never
    tuned: its slab decomposition was fixed on disk when it was sharded.
    """
    if isinstance(tensor, CSFTensor):
        tensor = tensor.to_coo()
    in_core = isinstance(tensor, COOTensor)
    require(in_core or isinstance(tensor, ShardedTensorStore),
            f"cannot build an MTTKRP engine from {type(tensor).__name__}")
    engine = MTTKRPEngine(tensor, repr_policy=repr_policy,
                          sparsity_threshold=sparsity_threshold,
                          tol=tol, csf_allocation=csf_allocation,
                          threads=threads,
                          slab_nnz_target=slab_nnz_target,
                          executor=executor,
                          max_bytes_in_core=max_bytes_in_core)
    if not in_core:
        return engine
    if csf_allocation == "one":
        # ONEMODE: MTTKRPEngine.mttkrp serves every mode from csf(0).
        engine.trees.csf(0)
    else:
        engine.trees.build_all(engine.executor, engine.threads)
    if rank is not None and slab_nnz_target is None:
        tune_mode = resolve_tune_mode(tune)
        if tune_mode != "off":
            BackendAutotuner(mode=tune_mode).tune_engine(engine, rank)
    return engine
