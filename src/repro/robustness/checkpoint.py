"""Checkpoint/resume for AO-ADMM runs.

A checkpoint captures *everything* the outer loop carries across
iterations — per-mode primal factors **and** scaled duals (the ADMM
warm starts), the per-iteration trace, the last per-mode rho, and
fingerprints of the tensor and the options — so
``fit_aoadmm(..., resume_from=...)`` continues a run **bit-identically**:
the resumed trace tail and final model match an uninterrupted run
exactly.  Grams, Cholesky factors, CSF trees, and
factor representations are deliberately *not* stored: they are all
deterministic functions of (tensor, factors) and are rebuilt on resume.

Randomness: the driver consumes its RNG only during factor
initialization, which a resumed run never re-enters; the checkpoint
records the init method + seed (``meta["rng"]``) so this invariant is
auditable.

Format: a single ``.npz`` written atomically (temp file + ``rename``)
through :func:`repro.core.serialize.save_state_npz`, with a JSON
metadata blob.  ``meta["version"]`` gates compatibility; loading a
newer-versioned checkpoint fails cleanly rather than misinterpreting it.

What is checked on resume
-------------------------
* the tensor fingerprint (shape, nnz, SHA-1 of coords+values),
* the numerics-affecting option fields (rank, constraints, blocked,
  block size, inner tolerance/iterations, rho policy, representation
  policy, init, seed, guard settings) — *stopping-rule* fields
  (``max_outer_iterations``, ``outer_tolerance``,
  ``time_budget_seconds``, ``callback``) and performance knobs
  (``threads``, ``slab_nnz_target``) may legitimately differ, e.g. to
  extend an exhausted iteration budget,
* a whole-payload checksum over **every** stored array — primals,
  duals, trace history, rhos — embedded by
  :func:`repro.core.serialize.save_state_npz` and verified at load
  time, so bit-rot anywhere in the container quarantines the file and
  falls back to the next older version instead of resuming from it.

Version 2 hashes each file once, with that payload checksum.  Version 1
files also carry ``state_sha1``, a second SHA-1 over the primals alone;
they still load, and ``state_sha1`` is still verified whenever a file
carries it.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..admm.state import AdmmState
from ..constraints.base import Constraint
from ..constraints.registry import make_constraint
from ..core.options import AOADMMOptions
from ..core.serialize import (
    PAYLOAD_SHA_KEY,
    array_fingerprint,
    load_state_npz,
    save_state_npz,
)
from ..core.trace import FactorizationTrace, OuterIterationRecord
from ..observability import record_integrity_event
from ..tensor.coo import COOTensor
from ..validation import require
from .guards import GuardEvent

CHECKPOINT_FORMAT = "repro-aoadmm-checkpoint"
CHECKPOINT_VERSION = 2

#: Option fields that must match between checkpoint and resume (they
#: change the numerics).  Constraints and rho policy are handled
#: separately because their specs are not always JSON values.
_NUMERIC_FIELDS = (
    "rank", "blocked", "block_size", "inner_tolerance",
    "max_inner_iterations", "repr_policy", "sparsity_threshold",
    "factor_zero_tol", "init", "seed", "guard_policy",
    "divergence_patience",
)


def _constraint_token(spec: object) -> object:
    """A JSON-stable token for a constraint spec.

    Normalized through :func:`make_constraint` so the string ``"nonneg"``
    and a ``NonNegative()`` instance fingerprint identically (a CLI-
    written checkpoint resumes from library code and vice versa), while
    parameterized constraints still distinguish their parameters.
    """
    if isinstance(spec, (str, Constraint)):
        instance = make_constraint(spec)
        params = {k: _json_safe(v)
                  for k, v in sorted(vars(instance).items())
                  if not k.startswith("_")}
        return [instance.name, params] if params else instance.name
    return [_constraint_token(s) for s in spec]  # type: ignore[union-attr]


def _json_safe(value: object) -> object:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def options_fingerprint(options: AOADMMOptions) -> dict:
    """The numerics-affecting option fields as a JSON-stable dict."""
    fp = {name: _json_safe(getattr(options, name))
          for name in _NUMERIC_FIELDS}
    fp["constraints"] = _constraint_token(options.constraints)
    fp["rho_policy"] = (options.rho_policy
                        if isinstance(options.rho_policy, str)
                        else f"<{type(options.rho_policy).__name__}>")
    return fp


def tensor_fingerprint(tensor) -> dict:
    """Shape, nnz, and a content hash of the tensor being factorized.

    Sources that know their own identity (the sharded store froze the
    originating COO's digest at ``create()`` time) answer directly —
    that keeps checkpoints interchangeable between an in-core run and
    an out-of-core run over the same non-zeros, without ever pulling
    the store's slabs into memory here.
    """
    own = getattr(tensor, "fingerprint", None)
    if callable(own):
        return own()
    return {"shape": list(tensor.shape), "nnz": int(tensor.nnz),
            "sha1": array_fingerprint(tensor.coords, tensor.vals)}


class TensorIdentity:
    """A tensor's fingerprint, taken once, standing in for the tensor.

    Pass it wherever a checkpoint call takes a tensor (``save_checkpoint``,
    ``CheckpointStore.save``, ``verify_checkpoint``): those calls only
    fingerprint the tensor, and this answers without hashing its
    non-zeros again.  ``fit_aoadmm`` takes one per fit.
    """

    __slots__ = ("_fingerprint",)

    def __init__(self, tensor) -> None:
        self._fingerprint = tensor_fingerprint(tensor)

    def fingerprint(self) -> dict:
        return self._fingerprint


@dataclass
class Checkpoint:
    """A loaded (or about-to-be-saved) optimizer state."""

    #: Outer iterations completed when the checkpoint was taken.
    iteration: int
    #: Per-mode primal factors.
    primals: list[np.ndarray]
    #: Per-mode scaled duals (the ADMM warm starts).
    duals: list[np.ndarray]
    #: Last per-mode rho (informational — recomputed from Grams on resume).
    rhos: np.ndarray
    #: The trace up to and including ``iteration``.
    trace: FactorizationTrace
    #: JSON metadata (fingerprints, version, rng record).
    meta: dict

    def states(self) -> list[AdmmState]:
        """Fresh :class:`AdmmState` objects holding this checkpoint."""
        return [AdmmState.from_snapshot(p, d)
                for p, d in zip(self.primals, self.duals)]

    @property
    def last_error(self) -> float:
        return self.trace.final_error()


# ----------------------------------------------------------------------
# Trace <-> array translation
# ----------------------------------------------------------------------

def _trace_arrays(trace: FactorizationTrace,
                  nmodes: int) -> dict[str, np.ndarray]:
    n = len(trace)
    jitter = np.zeros((n, nmodes))
    inner = np.zeros((n, nmodes), dtype=np.int64)
    densities = np.zeros((n, nmodes))
    reprs = np.full((n, nmodes), "dense", dtype="U8")
    for i, r in enumerate(trace.records):
        inner[i] = r.inner_iterations
        densities[i] = r.factor_densities
        reprs[i] = r.representations
        if len(r.jitter_added) == nmodes:
            jitter[i] = r.jitter_added
    return {
        "trace_errors": trace.errors(),
        "trace_mttkrp": np.array([r.mttkrp_seconds for r in trace.records]),
        "trace_admm": np.array([r.admm_seconds for r in trace.records]),
        "trace_other": np.array([r.other_seconds for r in trace.records]),
        "trace_inner": inner,
        "trace_densities": densities,
        "trace_repr": reprs,
        "trace_jitter": jitter,
    }


def _trace_from_arrays(arrays: dict[str, np.ndarray],
                       meta: dict) -> FactorizationTrace:
    trace = FactorizationTrace()
    trace.setup_seconds = float(meta["setup_seconds"])
    events_by_iteration: dict[int, list[GuardEvent]] = {}
    for payload in meta.get("record_guard_events", []):
        event = GuardEvent.from_dict(payload)
        events_by_iteration.setdefault(event.iteration, []).append(event)
    trace.guard_log = [GuardEvent.from_dict(p)
                       for p in meta.get("guard_log", [])]
    errors = arrays["trace_errors"]
    for i in range(errors.shape[0]):
        iteration = i + 1
        trace.append(OuterIterationRecord(
            iteration=iteration,
            relative_error=float(errors[i]),
            mttkrp_seconds=float(arrays["trace_mttkrp"][i]),
            admm_seconds=float(arrays["trace_admm"][i]),
            other_seconds=float(arrays["trace_other"][i]),
            inner_iterations=tuple(int(x) for x in arrays["trace_inner"][i]),
            factor_densities=tuple(float(x)
                                   for x in arrays["trace_densities"][i]),
            representations=tuple(str(x) for x in arrays["trace_repr"][i]),
            jitter_added=tuple(float(x) for x in arrays["trace_jitter"][i]),
            guard_events=tuple(events_by_iteration.get(iteration, ())),
        ))
    return trace


# ----------------------------------------------------------------------
# Save / load / verify
# ----------------------------------------------------------------------

def save_checkpoint(path: str | Path, tensor: "COOTensor | TensorIdentity",
                    options: AOADMMOptions, states: list[AdmmState],
                    trace: FactorizationTrace,
                    rhos: "list[float] | None" = None,
                    fsync: bool = False) -> Path:
    """Atomically write the full optimizer state to *path*; returns it.

    The arrays of *states* are written as they are, without a copy:
    a caller that keeps iterating while the write runs on another
    thread hands over owned copies (``fit_aoadmm`` does).

    ``block_reports`` (when ``options.track_block_reports`` is set) are
    the one trace field not persisted — they hold per-block objects with
    no stable array form; resumed traces carry ``None`` for pre-resume
    records.  ``fsync=True`` adds a durability barrier before the
    atomic rename (see :func:`repro.core.serialize.save_state_npz`).
    """
    nmodes = len(states)
    arrays: dict[str, np.ndarray] = {}
    for m, state in enumerate(states):
        arrays[f"primal{m}"] = state.primal
        arrays[f"dual{m}"] = state.dual
    arrays["rhos"] = np.array(rhos if rhos is not None
                              else [0.0] * nmodes, dtype=float)
    arrays.update(_trace_arrays(trace, nmodes))
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "iteration": len(trace),
        "nmodes": nmodes,
        "setup_seconds": trace.setup_seconds,
        "options": options_fingerprint(options),
        "tensor": tensor_fingerprint(tensor),
        # The loop consumes no randomness after initialization; the seed
        # spec below therefore fully determines the run's RNG history.
        "rng": {"init": options.init, "seed": _json_safe(options.seed)},
        "record_guard_events": [e.to_dict() for r in trace.records
                                for e in r.guard_events],
        "guard_log": [e.to_dict() for e in trace.guard_log],
    }
    return save_state_npz(path, arrays, meta, fsync=fsync)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    arrays, meta = load_state_npz(path)
    require(meta.get("format") == CHECKPOINT_FORMAT,
            f"{path} is not an AO-ADMM checkpoint")
    require(meta.get("version", 0) <= CHECKPOINT_VERSION,
            f"{path} has checkpoint version {meta.get('version')}; this "
            f"build reads up to version {CHECKPOINT_VERSION}")
    nmodes = int(meta["nmodes"])
    primals = [arrays[f"primal{m}"] for m in range(nmodes)]
    duals = [arrays[f"dual{m}"] for m in range(nmodes)]
    # load_state_npz has verified the payload checksum; a file without
    # one would load unchecked.
    require(PAYLOAD_SHA_KEY in meta or "state_sha1" in meta,
            f"{path} carries no checksum")
    if "state_sha1" in meta:  # version 1: a second hash of the primals
        require(array_fingerprint(*primals) == meta["state_sha1"],
                f"{path} failed its integrity check (factor state hash "
                "mismatch)")
    return Checkpoint(iteration=int(meta["iteration"]), primals=primals,
                      duals=duals, rhos=arrays["rhos"],
                      trace=_trace_from_arrays(arrays, meta), meta=meta)


# ----------------------------------------------------------------------
# Versioned store: retention, quarantine, fallback
# ----------------------------------------------------------------------

#: Suffix appended to a checkpoint file that failed to load (quarantine).
QUARANTINE_SUFFIX = ".corrupt"

_VERSION_RE = re.compile(r"\.it(\d{8})\.npz$")


class CheckpointUnavailable(RuntimeError):
    """No loadable checkpoint exists in the store."""


class CheckpointStore:
    """Versioned checkpoints around one base path, with retention.

    ``CheckpointStore("ck.npz", keep_last=3)`` writes siblings
    ``ck.it00000005.npz``, ``ck.it00000010.npz``, ... — one per
    checkpointed iteration — and keeps only the newest *keep_last*.
    Retention is crash-ordered: a new version is fsynced to stable
    storage **before** any older version is unlinked, so there is never
    an instant with zero durable checkpoints on disk.

    Loading walks versions newest-first.  A file that fails integrity
    verification (truncated zip, hash mismatch, garbage bytes — the
    checkpoint layer fingerprints its own state) is **quarantined**:
    renamed to ``<file>.corrupt`` so it can be inspected but never
    retried, and the next older version is tried instead.  Only when no
    version survives does :class:`CheckpointUnavailable` escalate.
    """

    def __init__(self, base_path: str | Path,
                 keep_last: int | None = None) -> None:
        base = Path(base_path)
        if base.suffix != ".npz":
            base = base.with_name(base.name + ".npz")
        if keep_last is not None:
            require(keep_last >= 1, "keep_last must be at least 1")
        self.base = base
        self.keep_last = keep_last
        #: Paths this store quarantined (after rename), in order.
        self.quarantined: list[Path] = []

    # -- layout --------------------------------------------------------
    def version_path(self, iteration: int) -> Path:
        return self.base.with_name(
            f"{self.base.stem}.it{iteration:08d}.npz")

    def versions(self) -> list[Path]:
        """Existing version files, oldest first."""
        pattern = f"{self.base.stem}.it*.npz"
        out = []
        for p in self.base.parent.glob(pattern):
            if _VERSION_RE.search(p.name):
                out.append(p)
        return sorted(out, key=lambda p: self._iteration_of(p))

    @staticmethod
    def _iteration_of(path: Path) -> int:
        match = _VERSION_RE.search(path.name)
        return int(match.group(1)) if match else -1

    # -- write ---------------------------------------------------------
    def save(self, tensor: "COOTensor | TensorIdentity",
             options: AOADMMOptions,
             states: list[AdmmState], trace: FactorizationTrace,
             rhos: "list[float] | None" = None) -> Path:
        """Write a new version for ``len(trace)``; prune after the fsync.

        Synchronous: the file is complete and fsynced when this returns.
        """
        path = save_checkpoint(self.version_path(len(trace)), tensor,
                               options, states, trace, rhos=rhos,
                               fsync=True)
        self.prune()
        return path

    def prune(self) -> list[Path]:
        """Unlink versions beyond ``keep_last`` (oldest first); returns them."""
        if self.keep_last is None:
            return []
        versions = self.versions()
        doomed = versions[:max(0, len(versions) - self.keep_last)]
        for p in doomed:
            try:
                p.unlink()
            except FileNotFoundError:  # pragma: no cover - racing sweep
                pass
        return doomed

    # -- read ----------------------------------------------------------
    def latest_path(self) -> Path | None:
        """Newest version file, or the plain base path, or ``None``."""
        versions = self.versions()
        if versions:
            return versions[-1]
        return self.base if self.base.exists() else None

    def quarantine(self, path: Path, reason: str) -> Path:
        """Move *path* aside as ``<path>.corrupt``; returns the new name."""
        target = path.with_name(path.name + QUARANTINE_SUFFIX)
        os.replace(path, target)
        record_integrity_event("mismatch", artifact=path.name)
        record_integrity_event("quarantine", artifact=path.name)
        warnings.warn(
            f"quarantined corrupt checkpoint {path.name} -> "
            f"{target.name}: {reason}",
            RuntimeWarning, stacklevel=2)
        self.quarantined.append(target)
        return target

    def load_latest(self) -> tuple[Checkpoint, Path]:
        """Newest checkpoint that passes its integrity check.

        Corrupt versions are quarantined and the next older one is
        tried; raises :class:`CheckpointUnavailable` when nothing loads.
        """
        candidates = list(reversed(self.versions()))
        if self.base.exists():
            candidates.append(self.base)
        for path in candidates:
            try:
                return load_checkpoint(path), path
            except Exception as exc:  # noqa: BLE001 - any load failure
                self.quarantine(path, f"{type(exc).__name__}: {exc}")
        raise CheckpointUnavailable(
            f"no loadable checkpoint under {self.base} "
            f"({len(self.quarantined)} quarantined)")


def resolve_resume(resume_from: "str | Path | Checkpoint") -> Checkpoint:
    """Turn a ``resume_from`` spec into a loaded :class:`Checkpoint`.

    Accepts a loaded checkpoint, an exact file path, or a *base* path
    whose :class:`CheckpointStore` versions exist (the ``keep_last``
    layout) — in which case the newest valid version wins, with corrupt
    ones quarantined along the way.
    """
    if isinstance(resume_from, Checkpoint):
        return resume_from
    path = Path(resume_from)
    if path.exists():
        return load_checkpoint(path)
    store = CheckpointStore(path)
    if store.versions():
        checkpoint, _ = store.load_latest()
        return checkpoint
    raise FileNotFoundError(f"no checkpoint at {path} (and no "
                            f"{path.stem}.it*.npz versions beside it)")


def verify_checkpoint(checkpoint: Checkpoint,
                      tensor: "COOTensor | TensorIdentity",
                      options: AOADMMOptions) -> None:
    """Reject a resume whose tensor or numerics-affecting options differ."""
    stored_tensor = checkpoint.meta["tensor"]
    current_tensor = tensor_fingerprint(tensor)
    require(stored_tensor == current_tensor,
            "checkpoint was taken on a different tensor "
            f"(stored {stored_tensor}, got {current_tensor})")
    stored = checkpoint.meta["options"]
    current = options_fingerprint(options)
    mismatched = sorted(k for k in set(stored) | set(current)
                        if stored.get(k) != current.get(k))
    require(not mismatched,
            "checkpoint options mismatch on numerics-affecting fields "
            + ", ".join(f"{k} (stored {stored.get(k)!r}, "
                        f"got {current.get(k)!r})" for k in mismatched))
