"""MTTKRP on CSF tensors (paper Algorithm 3, generalized to any order).

Three kernels, selected by where the target mode sits in the CSF's mode
order:

* **root** — the target mode is the tree root.  A single bottom-up sweep:
  scale leaf factor rows by the values, segment-sum into fibers, multiply
  by the fiber-level factor rows, segment-sum into slices, write the output
  rows.  No scatter conflicts; this is the kernel the paper parallelizes
  over slices.
* **leaf** — the target mode is the deepest level.  Top-down propagation of
  the ancestor row products, then a scatter-add keyed on the leaf ids.
* **internal** — anything in between: an upward sweep to the target level
  meets a downward sweep; the per-node products are scattered on the
  target-level ids.

All three vectorize the tree traversals with ``repeat`` (downward) and
``reduceat`` (upward) over the level pointer arrays.

Each kernel has two execution paths:

* the **monolithic** path (``tiling=None``) — one NumPy sweep over the
  whole tree, allocating its temporaries per call; kept as the simple
  reference implementation, the bitwise anchor of the ``csf`` family,
  and for one-off calls;
* the **slab-tiled** path — the tree is partitioned into nnz-balanced
  root-slice slabs (:class:`repro.tensor.tiling.CSFTiling`) fanned out
  by the executor's ``parallel_for`` (:mod:`repro.parallel.executor`:
  inline under ``serial``, a reused pool under ``thread``), with every
  temporary drawn from a reusable
  :class:`repro.kernels.workspace.KernelWorkspace` (paper Section IV-A
  slice parallelism).  Root slabs write disjoint
  output rows directly; leaf/internal slabs write their per-node products
  into disjoint ranges of one shared buffer which a single deterministic
  scatter then reduces — so results are **bit-identical** for any slab
  count and any thread count, like blocked ADMM.

These are NumPy sweeps.  :class:`repro.kernels.dispatch.MTTKRPEngine`
runs root-mode slabs through the compiled fused kernel of
:mod:`repro.kernels.native` instead (one recursive per-fiber C loop, no
nnz x rank temporaries, GIL released).  It replays
``np.add.reduceat``'s summation order exactly — each fiber is
``x[lo] + pairwise_sum(x[lo+1:hi])`` with NumPy's pairwise scheme
(sequential below 8 rows, 8 strided accumulators up to 128, a split at
``n/2`` rounded down to a multiple of 8 above) — so it is byte-equal to
the root sweep here and stays in the ``csf`` family.  The library is
built at first use with the system C compiler into
``$XDG_CACHE_HOME/repro/native/``; without a compiler, on a build
failure, or if its self-check against the NumPy sweep finds one
differing bit, the engine falls back to the tiled sweeps here (one
``RuntimeWarning`` per process).
"""

from __future__ import annotations

import numpy as np

from ..parallel.executor import ExecutorBase, resolve_executor
from ..tensor.csf import CSFTensor
from ..tensor.tiling import CSFSlab, CSFTiling
from ..types import VALUE_DTYPE, FactorList
from ..validation import check_mode, require
from .scatter import scatter_add_rows, segment_sums
from .workspace import KernelWorkspace

def _rank_of(factors: FactorList) -> int:
    return int(np.asarray(factors[0]).shape[1])


def _factor(factors: FactorList, mode: int) -> np.ndarray:
    """The mode's factor as a float64 array ``np.take`` can gather from."""
    return np.asarray(factors[mode], dtype=VALUE_DTYPE)


# ----------------------------------------------------------------------
# Monolithic sweeps (reference path, allocates per call)
# ----------------------------------------------------------------------
def _upward_to_level(csf: CSFTensor, factors: FactorList,
                     stop_level: int) -> np.ndarray:
    """Aggregate value-scaled factor rows from the leaves up to *stop_level*.

    Returns one row per node at ``stop_level``; the product **excludes**
    the factor of ``stop_level`` itself.
    """
    order = csf.mode_order
    nmodes = csf.nmodes
    acc = csf.vals[:, None] * np.asarray(
        factors[order[nmodes - 1]])[csf.fids[nmodes - 1]]
    for level in range(nmodes - 2, stop_level - 1, -1):
        acc = segment_sums(acc, csf.fptr[level][:-1])
        if level != stop_level:
            acc = acc * np.asarray(factors[order[level]])[csf.fids[level]]
    return acc


def _downward_to_level(csf: CSFTensor, factors: FactorList,
                       stop_level: int) -> np.ndarray:
    """Propagate ancestor row products from the roots down to *stop_level*.

    Returns one row per node at ``stop_level``; the product **excludes**
    the factor of ``stop_level`` itself.
    """
    order = csf.mode_order
    acc = np.asarray(factors[order[0]])[csf.fids[0]]
    for level in range(1, stop_level + 1):
        acc = np.repeat(acc, np.diff(csf.fptr[level - 1]), axis=0)
        if level != stop_level:
            acc = acc * np.asarray(factors[order[level]])[csf.fids[level]]
    return acc


# ----------------------------------------------------------------------
# Slab sweeps (workspace-backed, allocation-free after warm-up)
# ----------------------------------------------------------------------
def _slab_upward(slab: CSFSlab, factors: FactorList, stop_level: int,
                 ws: KernelWorkspace, rank: int) -> np.ndarray:
    """Workspace variant of :func:`_upward_to_level` over one slab.

    Bit-identical to the monolithic sweep restricted to the slab's node
    range: segments never cross slab boundaries (slabs split only at
    root-slice boundaries), and every op is the same elementwise
    multiply / left-to-right ``reduceat`` on the same operands.
    """
    tree = slab.tree
    order = tree.mode_order
    nmodes = tree.nmodes
    sid = slab.index
    acc = ws.buf(("up", sid, nmodes - 1), (tree.nnz, rank))
    np.take(_factor(factors, order[nmodes - 1]), tree.fids[nmodes - 1],
            axis=0, out=acc)
    np.multiply(acc, tree.vals[:, None], out=acc)
    for level in range(nmodes - 2, stop_level - 1, -1):
        seg = ws.buf(("up", sid, level), (tree.nnodes(level), rank))
        np.add.reduceat(acc, tree.fptr[level][:-1], axis=0, out=seg)
        acc = seg
        if level != stop_level:
            rows = ws.buf(("upg", sid, level),
                          (tree.nnodes(level), rank))
            np.take(_factor(factors, order[level]), tree.fids[level],
                    axis=0, out=rows)
            np.multiply(acc, rows, out=acc)
    return acc


def _slab_downward(slab: CSFSlab, factors: FactorList, stop_level: int,
                   ws: KernelWorkspace, rank: int) -> np.ndarray:
    """Workspace variant of :func:`_downward_to_level` over one slab.

    The per-call ``np.repeat(acc, np.diff(fptr))`` expansion becomes a
    gather through the cached expansion-index map — same rows, no index
    recomputation, no fresh output array.
    """
    tree = slab.tree
    order = tree.mode_order
    sid = slab.index
    acc = ws.buf(("down", sid, 0), (tree.nnodes(0), rank))
    np.take(_factor(factors, order[0]), tree.fids[0], axis=0, out=acc)
    for level in range(1, stop_level + 1):
        expand = ws.expand_indices(sid, level - 1)
        nxt = ws.buf(("down", sid, level), (tree.nnodes(level), rank))
        np.take(acc, expand, axis=0, out=nxt)
        acc = nxt
        if level != stop_level:
            rows = ws.buf(("downg", sid, level),
                          (tree.nnodes(level), rank))
            np.take(_factor(factors, order[level]), tree.fids[level],
                    axis=0, out=rows)
            np.multiply(acc, rows, out=acc)
    return acc


def _scatter_add_static(out: np.ndarray, rows: np.ndarray,
                        plan: tuple[np.ndarray, np.ndarray, np.ndarray],
                        ws: KernelWorkspace, tag: object) -> np.ndarray:
    """Pooled-buffer replay of :func:`scatter_add_rows` on a static index."""
    order, starts, targets = plan
    srt = ws.buf((tag, "sorted"), rows.shape)
    np.take(rows, order, axis=0, out=srt)
    sums = ws.buf((tag, "sums"), (starts.shape[0], rows.shape[1]))
    np.add.reduceat(srt, starts, axis=0, out=sums)
    out[targets] += sums
    return out


def _zeroed(out: np.ndarray | None, rows: int, rank: int) -> np.ndarray:
    """*out* filled with zeros, or a fresh zero ``(rows, rank)`` matrix."""
    if out is None:
        return np.zeros((rows, rank), dtype=VALUE_DTYPE)
    out.fill(0.0)
    return out


def _workspace_for(tiling: CSFTiling,
                   workspace: KernelWorkspace | None) -> KernelWorkspace:
    if workspace is not None:
        require(workspace.tiling is tiling,
                "workspace was built for a different tiling")
        return workspace
    return KernelWorkspace(tiling)


# ----------------------------------------------------------------------
# The three kernels
# ----------------------------------------------------------------------
def mttkrp_csf_root(csf: CSFTensor, factors: FactorList,
                    tiling: CSFTiling | None = None,
                    workspace: KernelWorkspace | None = None,
                    threads: int | None = None,
                    executor: "str | ExecutorBase | None" = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """MTTKRP for the CSF's root mode (paper Algorithm 3).

    With a *tiling*, slabs run in parallel and write disjoint output rows
    (root ids are unique and ascending across slabs), so no reduction is
    needed and the result is bit-identical for any slab/thread count.
    Every kernel here writes into *out* (zeroed first) when one is
    given, else into a fresh array.
    """
    rank = _rank_of(factors)
    out = _zeroed(out, csf.shape[csf.mode_order[0]], rank)
    if csf.nnz == 0:
        return out
    require(csf.nmodes >= 2, "MTTKRP needs at least two modes")
    if tiling is None:
        out[csf.fids[0]] = _upward_to_level(csf, factors, 0)
        return out

    ws = _workspace_for(tiling, workspace)

    def run_slab(slab: CSFSlab) -> None:
        rows = _slab_upward(slab, factors, 0, ws, rank)
        out[slab.tree.fids[0]] = rows

    resolve_executor(executor).parallel_for(run_slab, tiling.slabs,
                                            threads=threads)
    return out


def mttkrp_csf_leaf(csf: CSFTensor, factors: FactorList,
                    tiling: CSFTiling | None = None,
                    workspace: KernelWorkspace | None = None,
                    threads: int | None = None,
                    executor: "str | ExecutorBase | None" = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """MTTKRP for the CSF's deepest mode.

    With a *tiling*, each slab propagates its ancestor products downward
    in parallel and writes the value-scaled leaf rows into its disjoint
    range of one shared product buffer; a single deterministic scatter
    (static plan, stable order, always in the calling process) then
    reduces — bit-identical to the monolithic kernel for any
    slab/thread count.
    """
    rank = _rank_of(factors)
    leaf_level = csf.nmodes - 1
    out = _zeroed(out, csf.shape[csf.mode_order[leaf_level]], rank)
    if csf.nnz == 0:
        return out
    require(csf.nmodes >= 2, "MTTKRP needs at least two modes")
    if tiling is None:
        prod = _downward_to_level(csf, factors, leaf_level)
        prod = prod * csf.vals[:, None]
        return scatter_add_rows(out, csf.fids[leaf_level], prod)

    ws = _workspace_for(tiling, workspace)
    prod = ws.buf(("prod", leaf_level), (csf.nnz, rank))

    def run_slab(slab: CSFSlab) -> None:
        rows = _slab_downward(slab, factors, leaf_level, ws, rank)
        lo, hi = slab.leaf_range
        np.multiply(rows, slab.tree.vals[:, None], out=prod[lo:hi])

    resolve_executor(executor).parallel_for(run_slab, tiling.slabs,
                                            threads=threads)
    plan = ws.scatter_plan(("scatter", leaf_level), csf.fids[leaf_level])
    return _scatter_add_static(out, prod, plan, ws, ("sct", leaf_level))


def mttkrp_csf_internal(csf: CSFTensor, factors: FactorList, level: int,
                        tiling: CSFTiling | None = None,
                        workspace: KernelWorkspace | None = None,
                        threads: int | None = None,
                        executor: "str | ExecutorBase | None" = None,
                        out: np.ndarray | None = None) -> np.ndarray:
    """MTTKRP for the mode at an internal CSF *level* (0 < level < N-1).

    The tiled path runs each slab's meeting upward/downward sweeps in
    parallel (per-node products land in disjoint ranges of a shared
    buffer, since node ranges at every level tile the tree) and finishes
    with one deterministic scatter — bit-identical for any slab/thread
    count.
    """
    require(0 < level < csf.nmodes - 1,
            f"level {level} is not internal for {csf.nmodes} modes")
    rank = _rank_of(factors)
    out = _zeroed(out, csf.shape[csf.mode_order[level]], rank)
    if csf.nnz == 0:
        return out
    if tiling is None:
        upward = _upward_to_level(csf, factors, level)
        downward = _downward_to_level(csf, factors, level)
        return scatter_add_rows(out, csf.fids[level], upward * downward)

    ws = _workspace_for(tiling, workspace)
    nodeprod = ws.buf(("nodeprod", level), (csf.nnodes(level), rank))

    def run_slab(slab: CSFSlab) -> None:
        upward = _slab_upward(slab, factors, level, ws, rank)
        downward = _slab_downward(slab, factors, level, ws, rank)
        lo, hi = slab.node_ranges[level]
        np.multiply(upward, downward, out=nodeprod[lo:hi])

    resolve_executor(executor).parallel_for(run_slab, tiling.slabs,
                                            threads=threads)
    plan = ws.scatter_plan(("scatter", level), csf.fids[level])
    return _scatter_add_static(out, nodeprod, plan, ws, ("sct", level))


def mttkrp_csf(csf: CSFTensor, factors: FactorList, mode: int,
               tiling: CSFTiling | None = None,
               workspace: KernelWorkspace | None = None,
               threads: int | None = None,
               executor: "str | ExecutorBase | None" = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """MTTKRP for any *mode*, picking the kernel by the mode's CSF level."""
    mode = check_mode(mode, csf.nmodes)
    level = csf.mode_order.index(mode)
    kwargs = dict(tiling=tiling, workspace=workspace, threads=threads,
                  executor=executor, out=out)
    if level == 0:
        return mttkrp_csf_root(csf, factors, **kwargs)
    if level == csf.nmodes - 1:
        return mttkrp_csf_leaf(csf, factors, **kwargs)
    return mttkrp_csf_internal(csf, factors, level, **kwargs)
