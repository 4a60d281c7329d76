"""Reusable kernel workspaces for the tiled MTTKRP sweeps.

The MTTKRP kernels are called once per mode per outer iteration over a
tensor whose sparsity pattern never changes, yet the original sweeps
re-allocated every temporary on every call: the value-scaled accumulator
at each level, the ``np.repeat`` expansions, the ``np.diff(fptr)`` child
counts, and the output matrix itself.  A :class:`KernelWorkspace` makes
all of that state persistent per (tree, slab):

* **pattern precomputations** — per-(slab, level) child counts and the
  leaf-ward *expansion index* arrays (the gather map equivalent to
  ``np.repeat(..., counts)``) are computed once and cached forever;
* **pooled buffers** — every array a sweep writes is drawn from a keyed
  :class:`BufferPool` and filled with ``out=`` ufunc calls, so after the
  first (warm-up) call a static-pattern MTTKRP performs **zero** new
  large-array allocations;
* **allocation accounting** — the pool counts allocations, reuse hits,
  and bytes, which :class:`repro.kernels.dispatch.MTTKRPCallStats`
  surfaces per call for the benchmark harness and the machine model.

Thread-safety: slabs executed in parallel only ever touch buffers keyed
by their own slab index (plus disjoint ranges of shared output/product
buffers), and the pool takes a lock around cache misses, so concurrent
warm-up is safe.
"""

from __future__ import annotations

import threading

import numpy as np

from ..tensor.tiling import CSFTiling
from ..types import INDEX_DTYPE, VALUE_DTYPE


class BufferPool:
    """Keyed pool of reusable ndarrays with allocation accounting.

    ``take(key, shape)`` returns the cached buffer for *key* when its
    shape/dtype still match (a *hit*) and allocates a replacement
    otherwise.  Buffer contents are unspecified on return — callers
    overwrite them with ``out=`` writes (or ``fill``).
    """

    def __init__(self) -> None:
        self._buffers: dict[object, np.ndarray] = {}
        self._lock = threading.Lock()
        self.allocations = 0
        self.hits = 0
        self.bytes_allocated = 0

    def take(self, key: object, shape: tuple[int, ...],
             dtype: np.dtype = VALUE_DTYPE) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is not None and buf.shape == shape and buf.dtype == dtype:
            self.hits += 1
            return buf
        with self._lock:
            buf = self._buffers.get(key)
            if buf is not None and buf.shape == shape \
                    and buf.dtype == dtype:
                self.hits += 1
                return buf
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.allocations += 1
            self.bytes_allocated += buf.nbytes
        return buf


class KernelWorkspace:
    """Per-tree MTTKRP scratch: a tiling plus everything reusable across calls.

    One workspace serves every target mode of its tree (buffer keys are
    tagged with the mode where shapes differ), so the SPLATT ``ONEMODE``
    allocation shares a single workspace across all modes while
    ``ALLMODE`` holds one per tree.
    """

    def __init__(self, tiling: CSFTiling) -> None:
        self.tiling = tiling
        self.pool = BufferPool()
        self._child_counts: dict[tuple[int, int], np.ndarray] = {}
        self._expand_indices: dict[tuple[int, int], np.ndarray] = {}
        self._scatter_plans: dict[object, tuple[np.ndarray, np.ndarray,
                                                np.ndarray]] = {}
        # RLock: expand_indices() takes the lock and may call
        # child_counts(), which locks again on a cold cache.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Static-pattern precomputations (cached forever — the pattern never
    # changes; this removes the per-call np.diff/np.repeat index work).
    # ------------------------------------------------------------------
    def child_counts(self, slab_index: int, level: int) -> np.ndarray:
        """Children per node of slab *slab_index* at *level* (< leaves)."""
        key = (slab_index, level)
        counts = self._child_counts.get(key)
        if counts is None:
            with self._lock:
                counts = self._child_counts.get(key)
                if counts is None:
                    tree = self.tiling.slabs[slab_index].tree
                    counts = np.diff(tree.fptr[level])
                    self._child_counts[key] = counts
        return counts

    def expand_indices(self, slab_index: int, level: int) -> np.ndarray:
        """Parent-row gather map expanding *level* nodes to their children.

        ``arr[expand_indices(s, l)]`` equals
        ``np.repeat(arr, child_counts(s, l), axis=0)`` — but as a gather
        it supports ``np.take(..., out=)`` into a pooled buffer.
        """
        key = (slab_index, level)
        idx = self._expand_indices.get(key)
        if idx is None:
            with self._lock:
                idx = self._expand_indices.get(key)
                if idx is None:
                    counts = self.child_counts(slab_index, level)
                    idx = np.repeat(
                        np.arange(counts.shape[0], dtype=INDEX_DTYPE),
                        counts)
                    self._expand_indices[key] = idx
        return idx

    def scatter_plan(self, key: object, index: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed ``(order, group_starts, targets)`` for a static scatter.

        The scatter-add of the leaf/internal kernels sorts a static id
        array on every call; since the ids never change, the stable sort
        permutation, the group boundaries, and the unique target rows are
        computed once and replayed.  Bit-identical to
        :func:`repro.kernels.scatter.scatter_add_rows` by construction
        (same stable order, same ``reduceat`` groups).
        """
        plan = self._scatter_plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._scatter_plans.get(key)
                if plan is None:
                    index = np.asarray(index, dtype=INDEX_DTYPE)
                    order = np.argsort(index, kind="stable")
                    sorted_index = index[order]
                    starts = np.flatnonzero(
                        np.r_[True, sorted_index[1:] != sorted_index[:-1]]
                    ).astype(INDEX_DTYPE)
                    targets = sorted_index[starts]
                    plan = (order, starts, targets)
                    self._scatter_plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Pooled buffers
    # ------------------------------------------------------------------
    def buf(self, key: object, shape: tuple[int, ...],
            dtype: np.dtype = VALUE_DTYPE) -> np.ndarray:
        """A reusable buffer for *key* (contents unspecified)."""
        return self.pool.take(key, shape, dtype)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def bytes_allocated(self) -> int:
        """Total bytes the pool has ever allocated."""
        return self.pool.bytes_allocated

    @property
    def allocations(self) -> int:
        """Total pool cache misses (buffer allocations)."""
        return self.pool.allocations

    def snapshot(self) -> tuple[int, int]:
        """(allocations, bytes) snapshot for per-call deltas."""
        return self.pool.allocations, self.pool.bytes_allocated
