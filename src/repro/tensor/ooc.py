"""Slab residency management for out-of-core MTTKRP.

Two pieces, composed by :class:`repro.kernels.dispatch.MTTKRPEngine`
when its slabs come from a sharded store:

* :class:`SlabCache` — a residency set over ``(mode, slab)`` keys
  under a ``max_bytes_in_core`` byte budget.  Once full it evicts the
  most recently used slab other than the one just touched, so the
  engine's cyclic scan over every mode's slabs keeps a fixed resident
  set that hits on every sweep (LRU would evict each slab just before
  its next use).  Byte accounting uses the slab's *stored* bytes
  (exactly what the memmap can page in), and the cache always allows
  the **most recently touched** slab to stay resident even when it
  alone exceeds the budget — a budget below one slab's working set
  degrades to load-evict churn, never to a deadlock.
* :class:`SlabStreamer` — in-order iteration over one mode's slabs
  with one-slab-ahead prefetch issued through the engine's executor
  backend (:meth:`repro.parallel.executor.ExecutorBase.submit_one`;
  slab loading is file I/O, which releases the GIL, so thread-based
  prefetch genuinely overlaps the parent's compute).

Neither piece touches values: eviction drops array references (the
memmap pages go with them) and a reload maps the identical bytes from
disk, so residency decisions are **bit-invisible** to the kernels —
streamed MTTKRP stays bit-identical to in-core MTTKRP, dense or with
sparse deep factors, for any budget, eviction order, or prefetch
schedule.

Every load / hit / eviction / prefetch is mirrored into
:mod:`repro.observability` (``slab_*`` counters and residency gauges)
when observability is enabled.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from ..integrity import IntegrityError
from ..observability import record_slab_event
from ..validation import require

#: Cache keys are ``(root_mode, slab_index)`` pairs.
SlabKey = tuple[int, int]


class SlabCache:
    """Residency set of loaded slabs under a byte budget.

    ``max_bytes_in_core=None`` disables eviction (everything loaded
    stays resident — the "in-core after first sweep" mode); a budget
    evicts, after each insertion and until the resident bytes fit, the
    most recently used slab other than the one just touched, which
    always stays.
    """

    def __init__(self, max_bytes_in_core: int | None = None):
        if max_bytes_in_core is not None:
            require(int(max_bytes_in_core) >= 1,
                    "max_bytes_in_core must be positive")
            max_bytes_in_core = int(max_bytes_in_core)
        self.max_bytes_in_core = max_bytes_in_core
        #: key -> (slab, nbytes), least recently used first.
        self._resident: "OrderedDict[SlabKey, tuple[object, int]]" = \
            OrderedDict()
        self.resident_bytes = 0
        self.hits = 0
        self.misses = 0
        self.loads = 0
        self.evictions = 0
        #: Peak resident bytes ever observed (budget-compliance probe).
        self.peak_resident_bytes = 0

    # ------------------------------------------------------------------
    def __contains__(self, key: SlabKey) -> bool:
        return key in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def resident_keys(self) -> list[SlabKey]:
        """Resident keys, least recently used first."""
        return list(self._resident)

    def get(self, key: SlabKey, loader: Callable[[], object],
            nbytes: int) -> object:
        """The slab under *key*, loading via *loader* on a miss."""
        entry = self._resident.get(key)
        if entry is not None:
            self._resident.move_to_end(key)
            self.hits += 1
            record_slab_event("hit", key[0], entry[1],
                              self.resident_bytes, len(self._resident))
            return entry[0]
        self.misses += 1
        slab = loader()
        self.loads += 1
        self.put(key, slab, nbytes)
        record_slab_event("load", key[0], nbytes,
                          self.resident_bytes, len(self._resident))
        return slab

    def put(self, key: SlabKey, slab: object, nbytes: int) -> None:
        """Insert (or refresh) *key*, then evict while over budget."""
        nbytes = int(nbytes)
        old = self._resident.pop(key, None)
        if old is not None:
            self.resident_bytes -= old[1]
        self._resident[key] = (slab, nbytes)
        self.resident_bytes += nbytes
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        if self.max_bytes_in_core is None:
            return
        # Never evict the most recently touched slab (the last key):
        # the kernel is about to (or still does) read it.  Evict the
        # one touched before it instead: a cyclic scan reaches that
        # slab again last, while the older residents stay and hit.
        while (self.resident_bytes > self.max_bytes_in_core
               and len(self._resident) > 1):
            newest = reversed(self._resident)
            next(newest)
            key = next(newest)
            _, nbytes = self._resident.pop(key)
            self.resident_bytes -= nbytes
            self.evictions += 1
            record_slab_event("evict", key[0], nbytes,
                              self.resident_bytes, len(self._resident))

    def clear(self) -> None:
        """Drop every resident slab (counters keep their totals)."""
        self._resident.clear()
        self.resident_bytes = 0

    def stats(self) -> dict:
        """Counter snapshot (tests / benchmark reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "loads": self.loads,
            "evictions": self.evictions,
            "resident_bytes": self.resident_bytes,
            "resident_count": len(self._resident),
            "peak_resident_bytes": self.peak_resident_bytes,
        }


class SlabStreamer:
    """Stream one mode's slabs through a :class:`SlabCache` with prefetch.

    The streamer issues the load of slab ``k+1`` through the
    executor's :meth:`~repro.parallel.executor.ExecutorBase.submit_one`
    before handing slab ``k`` to the kernel, so disk I/O overlaps the
    parent's sweep; with no executor it prefetches nothing.  A
    prefetched slab enters the cache (and its byte accounting) only when
    consumed, in iteration order — residency decisions stay
    deterministic regardless of I/O timing, which keeps eviction traces
    reproducible run to run.
    """

    def __init__(self, store, cache: SlabCache, executor=None):
        self.store = store
        self.cache = cache
        self.executor = executor
        self.prefetches = 0

    def _loader(self, mode: int, index: int) -> Callable[[], object]:
        return lambda: self.store.load_slab(mode, index)

    def iter_mode(self, mode: int):
        """Yield ``CSFSlab`` objects of *mode* in index order."""
        count = self.store.slab_count(mode)
        pending_index: int | None = None
        pending = None
        for index in range(count):
            if pending_index == index and pending is not None:
                # Consume the prefetch: falls back to a synchronous
                # load if the async read failed (e.g. a torn-down
                # prefetch pool) — the bytes are the same either way.
                # An IntegrityError is NOT a prefetch hiccup: the slab
                # itself is damaged and unrecoverable, so retrying the
                # read synchronously would just re-detect it — re-raise
                # loudly instead of looping on corrupt bytes.
                try:
                    slab = pending.result()
                except IntegrityError:
                    raise
                except Exception:
                    slab = None
                nbytes = self.store.slab_nbytes(mode, index)
                if slab is not None and (mode, index) not in self.cache:
                    self.cache.misses += 1
                    self.cache.loads += 1
                    self.cache.put((mode, index), slab, nbytes)
                    record_slab_event("load", mode, nbytes,
                                      self.cache.resident_bytes,
                                      len(self.cache))
                    current = slab
                else:
                    current = self.cache.get(
                        (mode, index), self._loader(mode, index), nbytes)
            else:
                current = self.cache.get(
                    (mode, index), self._loader(mode, index),
                    self.store.slab_nbytes(mode, index))
            pending_index = pending = None
            nxt = index + 1
            if self.executor is not None and nxt < count \
                    and (mode, nxt) not in self.cache:
                pending = self.executor.submit_one(
                    self.store.load_slab, mode, nxt)
                pending_index = nxt
                self.prefetches += 1
                record_slab_event("prefetch", mode,
                                  self.store.slab_nbytes(mode, nxt),
                                  self.cache.resident_bytes,
                                  len(self.cache))
            yield current
