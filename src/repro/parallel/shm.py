"""Shared-memory array plane for the process-pool executor.

The process executor ships *no* array data through task pickles: every
large operand — the per-mode CSF index/value arrays, the factor
matrices, the output and per-node product buffers — lives in
:mod:`multiprocessing.shared_memory` segments created by the parent and
attached read/write by the persistent workers.  A task then pickles as a
handful of :class:`ShmArrayHandle` records (segment name + offset +
shape + dtype — a few hundred bytes), which is what makes per-call
dispatch cheap enough to amortize over a single MTTKRP.

Layout
------
:class:`ShmArena` is the owner-side registry.  ``put_group`` packs a
named family of arrays (one CSF tree's ``fids``/``fptr``/``vals``) into
**one** segment with 64-byte-aligned offsets; ``allocate`` carves a
standalone segment for a buffer the parent reads back (MTTKRP outputs,
per-node product buffers); ``update`` refreshes contents in place when
shape/dtype still match (the factor matrices, every call) and
transparently re-segments otherwise.  All segments carry the
``repro_shm_`` name prefix so leak checks can find strays, and every
arena is tracked in a module registry torn down at interpreter exit.

Worker side, :func:`attach` maps a handle back to an ndarray view
through a process-local segment cache.  Pool workers share the parent's
``resource_tracker`` (the tracker fd travels with fork/spawn), so the
re-registration Python < 3.13 performs on attach (bpo-38119) is an
idempotent set-add, and only the creating arena ever unlinks.

Cleanup guarantee: ``close()`` (or arena garbage collection, or the
``atexit`` sweep) unmaps and unlinks every segment the arena created —
``tests/test_executor.py`` and the CI executor job assert that no
``/dev/shm/repro_shm_*`` entry survives the suite.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import re as re_module
import secrets
import threading
import warnings
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

#: Name prefix of every segment this module creates (leak-check key).
SEGMENT_PREFIX = "repro_shm_"

#: Offset alignment inside packed segments (cache-line friendly).
_ALIGN = 64

_counter = itertools.count()
_token = secrets.token_hex(4)


class ShmAllocationError(MemoryError):
    """Creating a shared-memory segment failed (``/dev/shm`` pressure).

    Raised by :meth:`ShmArena._new_segment` with the original ``OSError``
    / ``MemoryError`` chained.  Subclasses :class:`MemoryError` so the
    supervisor's retry policy classifies it as transient memory pressure
    and steps the degradation ladder (smaller slabs, in-process
    executor) instead of aborting the fit.
    """


def _segment_name() -> str:
    """A unique, recognizable segment name (< 31 chars for POSIX shm)."""
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{_token}_{next(_counter):x}"


@dataclass(frozen=True)
class ShmArrayHandle:
    """A picklable reference to an ndarray living in a shared segment."""

    segment: str
    offset: int
    shape: tuple[int, ...]
    #: ``dtype.str`` (endianness-qualified) so the handle pickles small.
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)
                   * np.dtype(self.dtype).itemsize)


def _view(buf: memoryview, handle: ShmArrayHandle) -> np.ndarray:
    arr = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                     buffer=buf, offset=handle.offset)
    return arr


# ----------------------------------------------------------------------
# Owner side
# ----------------------------------------------------------------------

_LIVE_ARENAS: "weakref.WeakSet[ShmArena]" = weakref.WeakSet()


class ShmArena:
    """Owner-side registry of shared segments and the arrays inside them.

    One arena per :class:`~repro.kernels.dispatch.MTTKRPEngine`; closing
    the arena releases every segment it created.  Thread-safe: the
    engine may be driven from worker threads.
    """

    def __init__(self, tag: str = "arena") -> None:
        self.tag = tag
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._handles: dict[object, ShmArrayHandle] = {}
        self._arrays: dict[object, np.ndarray] = {}
        self._lock = threading.RLock()
        self.closed = False
        #: Bytes of shared memory this arena has ever mapped (cumulative).
        self.bytes_mapped = 0
        #: Bytes of shared memory currently live (mapped minus dropped).
        self.bytes_live = 0
        #: Reference count per segment — content-deduplicated groups
        #: share one segment, which is unlinked only when the last
        #: group referencing it is dropped.
        self._segment_refs: dict[str, int] = {}
        #: Content digest -> (segment name, packed handles) for group
        #: deduplication: two groups with byte-identical arrays share
        #: one segment instead of mapping the same bytes twice.
        self._group_digests: dict[str, tuple[str, dict]] = {}
        #: Digest of each live group key (for drop/dedup bookkeeping).
        self._group_digest_of: dict[object, str] = {}
        #: Segments whose bytes are *also* resident in the out-of-core
        #: slab budget (``max_bytes_in_core``); excluded from
        #: :meth:`billable_bytes` so the two budgets compose instead of
        #: double-counting the same non-zeros.
        self._shard_segments: set[str] = set()
        _LIVE_ARENAS.add(self)
        self._finalizer = weakref.finalize(self, _finalize_segments,
                                           self._segments)

    # -- creation ------------------------------------------------------
    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        try:
            seg = shared_memory.SharedMemory(
                create=True, size=max(int(nbytes), 1), name=_segment_name())
        except (OSError, MemoryError) as exc:
            raise ShmAllocationError(
                f"could not map {nbytes} shared bytes for "
                f"ShmArena({self.tag!r}): {exc}") from exc
        self._segments[seg.name] = seg
        self.bytes_mapped += seg.size
        self.bytes_live += seg.size
        self._segment_refs[seg.name] = 1
        return seg

    @staticmethod
    def _group_digest(prepared: dict[str, np.ndarray]) -> str:
        """Content address of a packed group (names + dtypes + bytes)."""
        digest = hashlib.sha1()
        for name, arr in prepared.items():
            digest.update(name.encode())
            digest.update(str(arr.dtype).encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.data if arr.flags.c_contiguous
                          else arr.tobytes())
        return digest.hexdigest()

    def put_group(self, key: object,
                  arrays: dict[str, np.ndarray]) -> dict[str, ShmArrayHandle]:
        """Pack *arrays* into one segment; returns per-name handles.

        Contents are copied once (the CSF pattern is static for the
        whole factorization).  Calling again with the same *key* returns
        the cached handles without re-copying, and a *different* key
        whose arrays are byte-identical to an already-packed group
        shares that group's segment (content-addressed dedup, refcounted
        by :meth:`drop_group`) instead of mapping the bytes twice.
        """
        with self._lock:
            self._check_open()
            cached = self._handles.get(("group", key))
            if cached is not None:
                return cached  # type: ignore[return-value]
            prepared = {name: np.ascontiguousarray(arr)
                        for name, arr in arrays.items()}
            digest = self._group_digest(prepared)
            dedup = self._group_digests.get(digest)
            if dedup is not None and dedup[0] in self._segments:
                seg_name, handles = dedup
                self._segment_refs[seg_name] += 1
                seg = self._segments[seg_name]
                for name, handle in handles.items():
                    self._arrays[("group", key, name)] = _view(seg.buf,
                                                               handle)
                self._handles[("group", key)] = handles  # type: ignore[assignment]
                self._group_digest_of[key] = digest
                return handles
            total = 0
            for arr in prepared.values():
                total = -(-total // _ALIGN) * _ALIGN + arr.nbytes
            seg = self._new_segment(total)
            handles: dict[str, ShmArrayHandle] = {}
            offset = 0
            for name, arr in prepared.items():
                offset = -(-offset // _ALIGN) * _ALIGN
                handle = ShmArrayHandle(seg.name, offset,
                                        tuple(arr.shape), arr.dtype.str)
                view = _view(seg.buf, handle)
                view[...] = arr
                handles[name] = handle
                self._arrays[("group", key, name)] = view
                offset += arr.nbytes
            self._handles[("group", key)] = handles  # type: ignore[assignment]
            self._group_digests[digest] = (seg.name, handles)
            self._group_digest_of[key] = digest
            return handles

    def drop_group(self, key: object) -> None:
        """Release the group under *key* (refcounted; no-op if absent).

        The shared segment is unlinked only when the last group
        referencing it is dropped — content-deduplicated siblings keep
        it alive.
        """
        with self._lock:
            handles = self._handles.pop(("group", key), None)
            if handles is None:
                return
            for name in list(handles):
                self._arrays.pop(("group", key, name), None)
            digest = self._group_digest_of.pop(key, None)
            seg_name = next(iter(handles.values())).segment
            refs = self._segment_refs.get(seg_name, 1) - 1
            if refs > 0:
                self._segment_refs[seg_name] = refs
                return
            if digest is not None:
                self._group_digests.pop(digest, None)
            self._drop_segment(seg_name)

    # -- shard-residency accounting ------------------------------------
    def mark_shard_resident(self, key: object,
                            resident: bool = True) -> None:
        """Flag the group under *key* as backed by out-of-core slab bytes.

        A shard-resident group's bytes are already counted against the
        slab cache's ``max_bytes_in_core`` (the shared copy exists only
        so workers can attach); :meth:`billable_bytes` excludes them so
        the shm budget and the slab budget compose instead of charging
        the same non-zeros twice.
        """
        with self._lock:
            handles = self._handles.get(("group", key))
            if handles is None:
                return
            seg_name = next(iter(handles.values())).segment
            if resident:
                self._shard_segments.add(seg_name)
            else:
                self._shard_segments.discard(seg_name)

    @property
    def shard_resident_bytes(self) -> int:
        """Live bytes whose contents the slab budget already accounts for."""
        with self._lock:
            return sum(self._segments[name].size
                       for name in self._shard_segments
                       if name in self._segments)

    def billable_bytes(self) -> int:
        """Live shared bytes chargeable to the shm budget alone."""
        with self._lock:
            return self.bytes_live - self.shard_resident_bytes

    def allocate(self, key: object, shape: tuple[int, ...],
                 dtype: np.dtype) -> np.ndarray:
        """A shared buffer the parent reads back (own segment per key).

        Reuses the existing segment while shape/dtype match; otherwise
        the old segment is unlinked and a fresh one mapped (so stale
        worker-side attachments can never alias a resized buffer).
        """
        dtype = np.dtype(dtype)
        with self._lock:
            self._check_open()
            handle = self._handles.get(key)
            if handle is not None and handle.shape == tuple(shape) \
                    and handle.dtype == dtype.str:
                return self._arrays[key]
            if handle is not None:
                self._drop_segment(handle.segment)
            nbytes = int(np.prod(shape, dtype=np.int64) * dtype.itemsize)
            seg = self._new_segment(nbytes)
            handle = ShmArrayHandle(seg.name, 0, tuple(shape), dtype.str)
            self._handles[key] = handle
            self._arrays[key] = _view(seg.buf, handle)
            return self._arrays[key]

    def update(self, key: object, array: np.ndarray) -> ShmArrayHandle:
        """Copy *array* into the shared buffer for *key* (realloc on resize)."""
        array = np.asarray(array)
        buf = self.allocate(key, tuple(array.shape), array.dtype)
        np.copyto(buf, array)
        return self._handles[key]

    # -- lookup --------------------------------------------------------
    def handle(self, key: object) -> ShmArrayHandle:
        """The handle registered under *key* (allocate/update keys only)."""
        return self._handles[key]

    def array(self, key: object) -> np.ndarray:
        """The parent-side view registered under *key*."""
        return self._arrays[key]

    def has(self, key: object) -> bool:
        return key in self._handles or ("group", key) in self._handles

    # -- teardown ------------------------------------------------------
    def _drop_segment(self, name: str) -> None:
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        stale = [k for k, h in self._handles.items()
                 if isinstance(h, ShmArrayHandle) and h.segment == name]
        for k in stale:
            self._handles.pop(k, None)
            self._arrays.pop(k, None)
        self.bytes_live -= seg.size
        self._segment_refs.pop(name, None)
        self._shard_segments.discard(name)
        for digest, (seg_name, _) in list(self._group_digests.items()):
            if seg_name == name:
                self._group_digests.pop(digest, None)
        _release_segment(seg)

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError(f"ShmArena({self.tag!r}) is closed")

    def close(self) -> None:
        """Unmap and unlink every segment this arena created (idempotent)."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._arrays.clear()
            self._handles.clear()
            self._segment_refs.clear()
            self._group_digests.clear()
            self._group_digest_of.clear()
            self._shard_segments.clear()
            self.bytes_live = 0
            segments, self._segments = dict(self._segments), {}
            self._finalizer.detach()
        for seg in segments.values():
            _release_segment(seg)

    def segment_names(self) -> list[str]:
        """Names of the live segments (leak-check support)."""
        with self._lock:
            return sorted(self._segments)

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _release_segment(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except OSError:  # pragma: no cover - already unmapped
        pass
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def _finalize_segments(segments: dict[str, shared_memory.SharedMemory]
                       ) -> None:
    """GC/exit fallback when an arena was never explicitly closed."""
    for seg in list(segments.values()):
        _release_segment(seg)
    segments.clear()


def active_segment_names() -> list[str]:
    """Every segment name still held by a live arena (leak check)."""
    names: list[str] = []
    for arena in list(_LIVE_ARENAS):
        if not arena.closed:
            names.extend(arena.segment_names())
    return sorted(names)


@atexit.register
def _atexit_sweep() -> None:  # pragma: no cover - interpreter teardown
    for arena in list(_LIVE_ARENAS):
        try:
            arena.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# Stale-segment sweeper (orphans from killed interpreters)
# ----------------------------------------------------------------------

#: Where POSIX shared memory surfaces as files (Linux).
_SHM_DIR = Path("/dev/shm")

#: Segment-name shape: prefix + creator pid (hex) + token + counter.
_SEGMENT_NAME_RE = re_module.compile(
    re_module.escape(SEGMENT_PREFIX) + r"([0-9a-f]+)_[0-9a-f]+_[0-9a-f]+$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    return True


def stale_segment_names() -> list[str]:
    """``repro_shm_*`` segments whose creating interpreter is gone.

    A SIGKILLed parent never runs its ``atexit`` sweep, so its segments
    survive as orphans in ``/dev/shm`` — real memory held until reboot.
    Every segment name embeds the creator's pid, so orphans are
    decidable: a dead creator can never unlink its segment again.
    Segments of live processes (including our own) are never listed.
    """
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    own = os.getpid()
    stale = []
    for entry in sorted(_SHM_DIR.glob(SEGMENT_PREFIX + "*")):
        match = _SEGMENT_NAME_RE.match(entry.name)
        if match is None:
            continue
        pid = int(match.group(1), 16)
        if pid == own or _pid_alive(pid):
            continue
        stale.append(entry.name)
    return stale


def sweep_stale_segments() -> list[str]:
    """Unlink every stale segment; returns the names removed.

    Called on process-executor startup (and by ``python -m
    repro.parallel --sweep-shm``).  Emits a single ``RuntimeWarning``
    per sweep naming what was reclaimed — loud enough to notice a
    crashing neighbour, quiet enough not to spam a worker fleet.
    """
    removed = []
    for name in stale_segment_names():
        try:
            (_SHM_DIR / name).unlink()
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            continue
        except OSError:  # pragma: no cover - permissions
            continue
        removed.append(name)
    if removed:
        warnings.warn(
            f"swept {len(removed)} orphaned shared-memory segment(s) "
            f"left by dead processes: {', '.join(removed[:5])}"
            + ("..." if len(removed) > 5 else ""),
            RuntimeWarning, stacklevel=2)
    return removed


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Process-local attachment cache: segment name -> SharedMemory.  Kept
#: for the worker's whole life — segments are named uniquely, so a
#: reallocated buffer always arrives under a fresh name.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    seg = _ATTACHED.get(name)
    if seg is None:
        # Python < 3.13 re-registers the segment with the resource
        # tracker on attach (bpo-38119).  Pool workers share the
        # *parent's* tracker (the fd travels with fork/spawn), so the
        # duplicate registration is an idempotent set-add — harmless.
        # Unregistering here would instead erase the parent's entry and
        # make the owning arena's ``unlink`` trip the tracker.
        seg = shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = seg
    return seg


def attach(handle: ShmArrayHandle) -> np.ndarray:
    """Worker-side ndarray view for *handle* (cached per segment)."""
    return _view(_attach_segment(handle.segment).buf, handle)


def detach_all() -> None:
    """Drop the worker-side attachment cache (tests / worker shutdown)."""
    for seg in _ATTACHED.values():
        try:
            seg.close()
        except OSError:  # pragma: no cover - already unmapped
            pass
    _ATTACHED.clear()
