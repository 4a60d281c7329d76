"""Deterministic fault injection for the robustness test suite.

Guards that are never exercised rot.  This module injects the exact
failure classes the guards exist for — NaN in a kernel output, an
indefinite Gram handed to the Cholesky path, a diverging objective — at
predetermined (iteration, mode) points, so ``tests/test_robustness.py``
can prove each guard fires and each recovery path works.  Everything
is deterministic: no randomness, no monkeypatching — the driver calls
the injector at its hook points when one is configured.

Driver
    Pass a :class:`FaultInjector` via ``AOADMMOptions.fault_injector``;
    ``fit_aoadmm`` routes every MTTKRP output, composed Gram, and
    relative error through it.

Storage
    :func:`inject_slab_fault` damages a sharded-store slab file on disk
    (:data:`STORAGE_FAULT_KINDS`: a seeded single-bit flip or a seeded
    truncation), exercising the integrity layer's verified reads;
    :class:`ShardCrashPlan` aborts ``ShardedTensorStore.create`` before
    the Nth slab write, proving the torn-write-safe commit (the target
    never parses as a store).  Both are deterministic functions of
    their spec, so the differential harness can replay the exact same
    damage on both sides of a comparison.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..validation import require

#: Fault classes understood by :class:`FaultInjector`; each corrupts a
#: *value* flowing through the loop, exercising the numerical guards.
FAULT_KINDS = ("mttkrp_nan", "indefinite_gram", "diverge_error")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault for the AO-ADMM driver.

    ``once=True`` fires exactly at ``iteration`` (and ``mode``, when
    given) and is then spent; ``once=False`` fires at every matching
    point from ``iteration`` onwards — that is how a *sustained*
    divergence is staged.
    """

    kind: str
    #: Outer iteration (1-based) at which the fault fires.
    iteration: int
    #: Mode to hit; ``None`` matches any mode (kind-dependent).
    mode: int | None = None
    once: bool = True

    def __post_init__(self) -> None:
        require(self.kind in FAULT_KINDS,
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}")
        require(self.iteration >= 1, "fault iteration is 1-based")


@dataclass(frozen=True)
class InjectionRecord:
    """One fault that was actually injected (the harness's audit log)."""

    kind: str
    iteration: int
    mode: int | None


class FaultInjector:
    """Applies a list of :class:`FaultSpec` at the driver's hook points."""

    def __init__(self, faults: list[FaultSpec] | tuple[FaultSpec, ...]):
        self.faults = list(faults)
        self._spent: set[int] = set()
        #: Everything injected so far, in order.
        self.injected: list[InjectionRecord] = []

    def _match(self, kind: str, iteration: int, mode: int | None) -> bool:
        for i, f in enumerate(self.faults):
            if f.kind != kind or (i in self._spent):
                continue
            if f.mode is not None and mode is not None and f.mode != mode:
                continue
            hit = (iteration == f.iteration if f.once
                   else iteration >= f.iteration)
            if not hit:
                continue
            if f.once:
                self._spent.add(i)
            self.injected.append(InjectionRecord(kind, iteration, mode))
            return True
        return False

    # ------------------------------------------------------------------
    # Hook points (called by fit_aoadmm when an injector is configured)
    # ------------------------------------------------------------------
    def corrupt_mttkrp(self, kmat: np.ndarray, iteration: int,
                       mode: int) -> np.ndarray:
        """Poison one entry of the MTTKRP output with NaN."""
        if not self._match("mttkrp_nan", iteration, mode):
            return kmat
        out = np.array(kmat, copy=True)
        out.flat[0] = np.nan
        return out

    def corrupt_gram(self, gram: np.ndarray, iteration: int,
                     mode: int) -> np.ndarray:
        """Make the composed Gram indefinite (negative leading diagonal)."""
        if not self._match("indefinite_gram", iteration, mode):
            return gram
        shift = float(np.trace(gram)) + 1.0
        return gram - shift * np.eye(gram.shape[0])

    def corrupt_error(self, error: float, iteration: int) -> float:
        """Inflate the relative error to stage objective divergence."""
        if not self._match("diverge_error", iteration, None):
            return error
        return error * 10.0 + 1.0


# ----------------------------------------------------------------------
# Storage faults (sharded-store slab damage + shard crashes)
# ----------------------------------------------------------------------

#: On-disk damage classes :func:`inject_slab_fault` understands.
STORAGE_FAULT_KINDS = ("slab_bitflip", "slab_truncate")


@dataclass(frozen=True)
class SlabFaultSpec:
    """One scheduled slab damage: kind + target slab + seed.

    The damage site is a deterministic function of the spec: ``seed``
    feeds ``np.random.default_rng``, which picks the byte offset and
    bit (``slab_bitflip``) or the surviving length (``slab_truncate``).
    Same spec, same slab bytes → same damage, every time.
    """

    kind: str
    mode: int = 0
    index: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        require(self.kind in STORAGE_FAULT_KINDS,
                f"unknown storage fault kind {self.kind!r}; expected "
                f"one of {STORAGE_FAULT_KINDS}")
        require(self.mode >= 0, "mode must be non-negative")
        require(self.index >= 0, "slab index must be non-negative")


@dataclass(frozen=True)
class SlabFaultRecord:
    """One slab damage actually applied (the harness's audit log)."""

    kind: str
    path: Path
    #: Byte offset flipped (bitflip) or surviving length (truncate).
    offset: int
    detail: str


def inject_slab_fault(store, spec: SlabFaultSpec) -> SlabFaultRecord:
    """Damage one slab file of *store* on disk, per *spec*.

    ``slab_bitflip`` flips one bit of one byte; ``slab_truncate`` cuts
    the file strictly shorter.  Returns the audit record naming exactly
    what was done.  The store's read path must subsequently either
    rebuild the slab (source attached) or raise ``IntegrityError`` —
    never return the damaged bytes.
    """
    path = Path(store.slab_path(spec.mode, spec.index))
    size = path.stat().st_size
    require(size >= 1, f"{path} is empty; nothing to damage")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "slab_bitflip":
        offset = int(rng.integers(0, size))
        bit = int(rng.integers(0, 8))
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << bit)]))
        return SlabFaultRecord(spec.kind, path, offset,
                               f"flipped bit {bit} of byte {offset}")
    keep = int(rng.integers(0, size))
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    return SlabFaultRecord(spec.kind, path, keep,
                           f"truncated {size} -> {keep} bytes")


class InjectedCrash(RuntimeError):
    """Raised by :class:`ShardCrashPlan` to abort a shard mid-write."""


@dataclass
class ShardCrashPlan:
    """Kill a ``ShardedTensorStore.create`` before its Nth slab write.

    Pass the plan as ``create(..., fault_hook=plan)``; it counts slab
    writes and at the ``at_slab``-th one either raises
    :class:`InjectedCrash` (default — catchable by the test) or hard-kills the process with
    ``os._exit`` (``hard=True``, for subprocess-based crash tests where
    no ``finally`` block may run).  Either way the torn-write contract
    must hold: the target directory never contains a ``meta.json``, so
    it never parses as a store.
    """

    #: 1-based count of slab writes at which the crash fires.
    at_slab: int = 1
    #: Exit via ``os._exit`` instead of raising (no cleanup runs).
    hard: bool = False
    exit_code: int = 57

    def __post_init__(self) -> None:
        require(self.at_slab >= 1, "at_slab is 1-based")
        self.writes = 0
        self.fired = False

    def __call__(self, rel: str) -> None:
        self.writes += 1
        if self.fired or self.writes < self.at_slab:
            return
        self.fired = True
        if self.hard:  # pragma: no cover - exercised via subprocess
            os._exit(self.exit_code)
        raise InjectedCrash(
            f"injected crash before slab write #{self.writes} ({rel!r})")
