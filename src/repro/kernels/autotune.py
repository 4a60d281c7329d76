"""Measured-cost MTTKRP backend autotuner (paper Section VI, ROADMAP item 3).

Section VI leaves open "automatically select the best data structure ...
during MTTKRP"; :mod:`repro.sparse.autotune` answers it for the *factor*
side by pricing representations on the machine model.  This module closes
the *tensor* side: among the CSF execution plans (the slab-tiled kernels
at different slab-nnz targets) it picks, per tree, the plan the evidence
says is fastest.

The selector is deliberately restricted to plans inside the ``csf``
bit-identity family: every candidate is the same upward sweep over the
same tree, only decomposed into different contiguous root-slice slabs, so
any choice produces **bit-identical** output (the contract
:class:`repro.tensor.tiling.CSFTiling` documents and the differential
harness enforces).  Tuning is therefore performance-only by construction
— cross-family backends (COO, sparse-factor CSR/CSR-H) are priced for
the report but never auto-selected.

Three tune modes (``tune=`` on :func:`repro.fit` /
:func:`~repro.kernels.dispatch.make_engine`, or ``REPRO_TUNE``):

``"model"`` (the default)
    Rank candidates purely on the analytic cost model
    (:func:`repro.machine.kernels.mttkrp_kernel_cost` +
    :func:`repro.machine.cost.kernel_time`, with a per-slab dispatch
    surcharge and a cache-residency credit for slab-sized working sets).
    No timing, no disk I/O — safe to run on every fit.
``"measure"``
    Seed with the model, then refine with cheap timed calibration probes:
    each candidate runs a capped-nnz root-slice prefix of the real tree
    (:func:`repro.tensor.tiling.root_prefix_tree`) a few times, and the
    best-of-N per-nnz rate decides.  Decisions persist in an on-disk
    :class:`TuningCache` keyed by the tensor fingerprint, so repeated
    fits of the same data skip calibration entirely.
``"off"``
    No tuning; the engine keeps its explicit / default slab target.

Probe timings and decisions flow through the observability registry
(``tune_*`` metrics) and are summarized by ``python -m repro tune``.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ..config import (
    AUTOTUNE_MIN_PROBE_NNZ,
    AUTOTUNE_PROBE_NNZ,
    AUTOTUNE_SLAB_LADDER,
    DEFAULT_SLAB_NNZ,
)
from ..machine.cost import kernel_time
from ..machine.kernels import mttkrp_kernel_cost
from ..machine.spec import PAPER_MACHINE, MachineSpec
from ..observability import (
    record_tune_decision,
    record_tune_probe,
    record_tune_quarantine,
    span,
)
from ..parallel.executor import ExecutorBase, resolve_executor
from ..parallel.threadpool import effective_threads
from ..tensor.csf import CSFTensor
from ..tensor.tiling import CSFTiling, nnz_per_root_slice, root_prefix_tree
from ..validation import require
from .mttkrp_csf import mttkrp_csf
from .workspace import KernelWorkspace

#: Environment override for the tune mode (``off`` / ``model`` /
#: ``measure``); an explicit ``tune=`` argument wins over it.
TUNE_ENV_VAR = "REPRO_TUNE"

#: Environment override for the on-disk tuning-cache location.
CACHE_ENV_VAR = "REPRO_TUNE_CACHE"

TUNE_MODES = ("off", "model", "measure")

#: Bump to invalidate every persisted decision (the version is part of
#: each cache key, so stale-format entries simply never match).
CACHE_VERSION = 1

#: Model-side surcharge per slab: the Python dispatch + scheduling cost
#: the roofline cannot see.  Calibrated to the slab-sweep benchmarks'
#: observed per-slab overhead (tens of microseconds per dispatched
#: slab); it is what stops the model from always preferring the
#: finest decomposition.
PER_SLAB_DISPATCH_SECONDS = 2e-5

#: Malformed ``REPRO_TUNE`` values already warned about (warn once per
#: value, matching the ``REPRO_NUM_THREADS`` / ``REPRO_EXECUTOR``
#: pattern).
_WARNED_ENV_VALUES: set[str] = set()


def resolve_tune_mode(tune: str | None = None) -> str:
    """An explicit tune mode, else ``REPRO_TUNE``, else ``"model"``.

    A malformed environment value warns once per value and falls back to
    the default — a typo in a shell profile must not crash library calls.
    """
    if tune is not None:
        require(tune in TUNE_MODES,
                f"unknown tune mode {tune!r} (choose from {TUNE_MODES})")
        return tune
    raw = os.environ.get(TUNE_ENV_VAR)
    if not raw:
        return "model"
    if raw in TUNE_MODES:
        return raw
    if raw not in _WARNED_ENV_VALUES:
        _WARNED_ENV_VALUES.add(raw)
        warnings.warn(
            f"ignoring malformed {TUNE_ENV_VAR}={raw!r} "
            f"(choose from {TUNE_MODES}); tuning with 'model'",
            RuntimeWarning, stacklevel=2)
    return "model"


def default_cache_path() -> Path:
    """``REPRO_TUNE_CACHE``, else ``$XDG_CACHE_HOME/repro/autotune.json``."""
    raw = os.environ.get(CACHE_ENV_VAR)
    if raw:
        return Path(raw)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "autotune.json"


# ----------------------------------------------------------------------
# Candidates
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BackendCandidate:
    """One csf-family execution plan: the tree tiled at one slab target."""

    name: str
    slab_nnz_target: int
    #: *Requested* slab count the target resolves to on this tree
    #: (``ceil(nnz / target)`` capped at the slice count).  The realized
    #: count can be lower on skewed trees — ``balanced_chunks`` merges
    #: cuts that would produce empty slabs — but it is a pure function
    #: of the weights and this request, so two candidates with equal
    #: ``n_slabs`` produce the *identical* tiling.
    n_slabs: int


def _n_slabs(nnz: int, nslices: int, target: int) -> int:
    if not nnz or not nslices:
        return 0
    return max(1, min(-(-nnz // target), nslices))


def candidate_backends(nnz: int, nslices: int,
                       ladder: Sequence[int] | None = None
                       ) -> list[BackendCandidate]:
    """The slab-target ladder, deduplicated by resulting slab count.

    :data:`repro.config.DEFAULT_SLAB_NNZ` is always a rung, so the tuned
    engine can never do worse than "what the untuned engine would have
    done" by simply not considering it.
    """
    if not nnz or not nslices:
        return []
    rungs = sorted(set(ladder if ladder is not None
                       else AUTOTUNE_SLAB_LADDER) | {DEFAULT_SLAB_NNZ})
    out: list[BackendCandidate] = []
    seen: set[int] = set()
    for target in rungs:
        require(target >= 1, "slab targets must be positive")
        count = _n_slabs(nnz, nslices, int(target))
        if count in seen:
            continue
        seen.add(count)
        out.append(BackendCandidate(f"csf[s={target}]", int(target), count))
    return out


# ----------------------------------------------------------------------
# Decisions and reports
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ModeDecision:
    """The tuner's verdict for one mode-rooted tree."""

    mode: int
    backend: str
    slab_nnz_target: int
    n_slabs: int
    #: ``"model"`` (analytic only), ``"measure"`` (freshly probed),
    #: ``"cache"`` (persisted probe reused), or ``"default"`` (nothing
    #: to choose between — e.g. an empty tree).
    source: str
    #: Modelled seconds per candidate (always available).
    model_seconds: dict[str, float] = field(default_factory=dict)
    #: Probe-extrapolated seconds per candidate (measure/cache only).
    probe_seconds: dict[str, float] = field(default_factory=dict)
    #: Non-zeros the calibration prefix covered (0 = not probed).
    probe_nnz: int = 0

    def as_dict(self) -> dict:
        return {"mode": self.mode, "backend": self.backend,
                "slab_nnz_target": self.slab_nnz_target,
                "n_slabs": self.n_slabs, "source": self.source,
                "model_seconds": dict(self.model_seconds),
                "probe_seconds": dict(self.probe_seconds),
                "probe_nnz": self.probe_nnz}


@dataclass(frozen=True)
class TuningReport:
    """Per-mode decisions for one (tensor, rank, threads, executor)."""

    tune_mode: str
    rank: int
    threads: int
    executor: str
    fingerprint: str | None
    decisions: tuple[ModeDecision, ...]

    def decision(self, mode: int) -> ModeDecision | None:
        for d in self.decisions:
            if d.mode == mode:
                return d
        return None

    def slab_targets(self) -> dict[int, int]:
        """Per-root-mode slab targets, ready for the engine's tilings."""
        return {d.mode: d.slab_nnz_target for d in self.decisions}

    def format_table(self) -> str:
        """Human-readable tune report (the ``repro tune`` CLI output)."""
        names: list[str] = []
        for d in self.decisions:
            for name in list(d.model_seconds) + list(d.probe_seconds):
                if name not in names:
                    names.append(name)
        head = (f"tune mode={self.tune_mode} rank={self.rank} "
                f"threads={self.threads} executor={self.executor}")
        if self.fingerprint:
            head += f" fingerprint={self.fingerprint[:12]}"
        lines = [head,
                 f"{'mode':>4} {'chosen':>16} {'slabs':>6} {'source':>8}  "
                 + "  ".join(f"{n:>16}" for n in names)]
        for d in self.decisions:
            cells = []
            for name in names:
                probe = d.probe_seconds.get(name)
                model = d.model_seconds.get(name)
                val = probe if probe is not None else model
                mark = "*" if probe is not None else " "
                cells.append(f"{val * 1e3:>13.3f}ms{mark}" if val is not None
                             else f"{'-':>16}")
            lines.append(f"{d.mode:>4} {d.backend:>16} {d.n_slabs:>6} "
                         f"{d.source:>8}  " + "  ".join(cells))
        lines.append("(* = probe-extrapolated seconds; others are "
                     "model seconds)")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {"tune_mode": self.tune_mode, "rank": self.rank,
                "threads": self.threads, "executor": self.executor,
                "fingerprint": self.fingerprint,
                "decisions": [d.as_dict() for d in self.decisions]}


# ----------------------------------------------------------------------
# The on-disk tuning cache
# ----------------------------------------------------------------------

def cache_key(fingerprint: str, mode: int, rank: int, threads: int,
              executor: str) -> str:
    """The persisted-decision key: everything a probe's outcome depends on."""
    return (f"v{CACHE_VERSION}:{fingerprint}:mode={mode}:rank={rank}:"
            f"threads={threads}:executor={executor}")


def _valid_entry(entry: object) -> bool:
    if not isinstance(entry, dict):
        return False
    target = entry.get("slab_nnz_target")
    count = entry.get("n_slabs")
    probes = entry.get("probe_seconds")
    if not (isinstance(entry.get("backend"), str)
            and isinstance(target, int) and target >= 1
            and isinstance(count, int) and count >= 1
            and isinstance(probes, dict) and probes):
        return False
    return all(isinstance(k, str) and isinstance(v, (int, float))
               and np.isfinite(v) and v >= 0.0
               for k, v in probes.items())


def valid_cache_entry(entry: object) -> bool:
    """Whether *entry* is a well-formed tuning-cache record.

    The public face of the read path's validator, shared with the
    ``repro fsck`` scrubber so both judge entries by the same rules.
    """
    return _valid_entry(entry)


class TuningCache:
    """Persisted probe decisions, one JSON file, atomic rewrites.

    Corruption is quarantined, never fatal: an unreadable *file* is
    renamed aside (``<name>.corrupt``) and treated as empty; an invalid
    *entry* is dropped from the file on sight.  Both paths bump
    :attr:`quarantined` and re-measure — a damaged cache can cost time,
    not correctness.
    """

    def __init__(self, path: "Path | str | None" = None):
        self.path = Path(path) if path is not None else default_cache_path()
        #: Corrupt files/entries discarded by this instance.
        self.quarantined = 0

    def _load(self) -> dict:
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        except OSError as exc:
            warnings.warn(f"unreadable tuning cache {self.path}: {exc}",
                          RuntimeWarning, stacklevel=3)
            return {}
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("cache root must be an object")
        except ValueError as exc:
            self.quarantined += 1
            record_tune_quarantine("file")
            aside = self.path.with_name(self.path.name + ".corrupt")
            try:
                os.replace(self.path, aside)
            except OSError:
                aside = None
            warnings.warn(
                f"quarantined corrupt tuning cache {self.path}"
                + (f" -> {aside}" if aside else "") + f": {exc}",
                RuntimeWarning, stacklevel=3)
            return {}
        return data

    def _save(self, data: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, self.path)

    def get(self, key: str) -> dict | None:
        """A validated entry, or None (invalid entries are dropped)."""
        data = self._load()
        entry = data.get(key)
        if entry is None:
            return None
        if not _valid_entry(entry):
            self.quarantined += 1
            record_tune_quarantine("entry")
            warnings.warn(
                f"quarantined corrupt tuning-cache entry {key!r} "
                f"in {self.path}; re-measuring",
                RuntimeWarning, stacklevel=3)
            del data[key]
            self._save(data)
            return None
        return entry

    def put(self, key: str, entry: dict) -> None:
        data = self._load()
        data[key] = entry
        self._save(data)

    def scrub(self, repair: bool = False) -> dict:
        """Audit every entry; optionally drop the invalid ones.

        Detection is read-only (unlike :meth:`get`, which quarantines
        on sight) so an fsck report pass can run without mutating the
        cache.  With *repair*, invalid entries are dropped and an
        unparseable file is quarantined aside, exactly as the read path
        would.  Returns ``{"exists", "entries", "invalid",
        "parse_error"}``.
        """
        try:
            raw = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {"exists": False, "entries": 0, "invalid": [],
                    "parse_error": None}
        except OSError as exc:
            return {"exists": True, "entries": 0, "invalid": [],
                    "parse_error": str(exc)}
        try:
            data = json.loads(raw)
            if not isinstance(data, dict):
                raise ValueError("cache root must be an object")
        except ValueError as exc:
            if repair:
                self._load()  # reuses the file-quarantine path
            return {"exists": True, "entries": 0, "invalid": [],
                    "parse_error": str(exc)}
        invalid = [k for k in sorted(data) if not _valid_entry(data[k])]
        if repair and invalid:
            for key in invalid:
                del data[key]
                self.quarantined += 1
                record_tune_quarantine("entry")
            self._save(data)
        return {"exists": True, "entries": len(data), "invalid": invalid,
                "parse_error": None}


# ----------------------------------------------------------------------
# The autotuner
# ----------------------------------------------------------------------

class BackendAutotuner:
    """Per-(tensor, mode, rank) selector over csf-family execution plans.

    Parameters
    ----------
    mode:
        ``"off"`` / ``"model"`` / ``"measure"``; ``None`` resolves
        ``REPRO_TUNE`` (default ``"model"``).
    machine:
        Spec the analytic seeding prices against (default: the paper's).
    cache:
        A :class:`TuningCache` for persisted probe decisions.  ``None``
        creates the default on-disk cache in measure mode (and no cache
        otherwise).  Pass an explicit instance to pin the location.
    ladder:
        Slab-target rungs to consider (default
        :data:`repro.config.AUTOTUNE_SLAB_LADDER`).
    probe_nnz / min_probe_nnz / probe_repeats:
        Calibration-probe sizing: the prefix workload cap, the tensor
        size below which measure mode trusts the model instead of the
        clock, and the timed repetitions per candidate (best-of-N).
    clock:
        Injectable monotonic clock for the probes (tests pin a fake one
        to make calibration deterministic).
    """

    def __init__(self, mode: str | None = None,
                 machine: MachineSpec = PAPER_MACHINE,
                 cache: TuningCache | None = None,
                 ladder: Sequence[int] | None = None,
                 probe_nnz: int = AUTOTUNE_PROBE_NNZ,
                 min_probe_nnz: int | None = None,
                 probe_repeats: int = 3,
                 clock: Callable[[], float] = time.perf_counter):
        self.mode = resolve_tune_mode(mode)
        self.machine = machine
        self.ladder = tuple(ladder) if ladder is not None \
            else AUTOTUNE_SLAB_LADDER
        require(probe_nnz >= 1, "probe_nnz must be positive")
        require(probe_repeats >= 1, "probe_repeats must be positive")
        self.probe_nnz = int(probe_nnz)
        self.min_probe_nnz = (AUTOTUNE_MIN_PROBE_NNZ if min_probe_nnz is None
                              else int(min_probe_nnz))
        self.probe_repeats = int(probe_repeats)
        self.clock = clock
        if cache is None and self.mode == "measure":
            cache = TuningCache()
        self.cache = cache

    def candidates(self, tree: CSFTensor) -> list[BackendCandidate]:
        """The candidate plans this tuner would rank for *tree*."""
        return candidate_backends(tree.nnz, tree.nslices, self.ladder)

    # -- model seeding --------------------------------------------------
    def _slice_fibers(self, tree: CSFTensor) -> np.ndarray:
        """Per-root-slice fiber counts one level above the leaves."""
        if tree.nmodes == 2:
            # Two-level trees have no interior fiber level; each root
            # slice is its own (single) fiber.
            return np.ones(tree.nslices, dtype=np.int64)
        ptr = tree.fptr[0]
        for level in range(1, tree.nmodes - 2):
            ptr = tree.fptr[level][ptr]
        return np.diff(ptr)

    def model_seconds(self, tree: CSFTensor, candidate: BackendCandidate,
                      rank: int, threads: int | None = 1) -> float:
        """Analytic seconds for one candidate plan on one tree.

        Two slab-granularity effects are layered on the raw kernel cost:
        a per-slab dispatch surcharge (the interpreter's cost per
        scheduled slab), and a cache-residency credit — a slab's gather
        working set is bounded by its own non-zeros, so fine slabs see a
        lower effective miss rate than the monolithic working set would
        suggest (the measured reason tiling helps even single-threaded).
        """
        slice_nnz = nnz_per_root_slice(tree)
        if slice_nnz.size == 0:
            return 0.0
        leaf_rows = tree.shape[tree.mode_order[-1]]
        mid_rows = tree.shape[tree.mode_order[1]] if tree.nmodes >= 3 \
            else tree.shape[tree.mode_order[-1]]
        per_slab_nnz = max(1, tree.nnz // max(candidate.n_slabs, 1))
        cost = mttkrp_kernel_cost(
            slice_nnz, self._slice_fibers(tree), rank,
            leaf_rows=min(leaf_rows, per_slab_nnz), mid_rows=mid_rows,
            machine=self.machine,
            slab_nnz_target=candidate.slab_nnz_target)
        seconds = kernel_time(cost, effective_threads(threads), self.machine)
        return seconds + candidate.n_slabs * PER_SLAB_DISPATCH_SECONDS

    # -- measured probes ------------------------------------------------
    def _probe_factors(self, tree: CSFTensor, mode: int,
                       rank: int) -> list[np.ndarray]:
        rng = np.random.default_rng([0x7A11, mode, rank])
        return [rng.uniform(0.5, 1.5, (extent, rank))
                for extent in tree.shape]

    def probe_seconds(self, tree: CSFTensor, candidates:
                      Sequence[BackendCandidate], mode: int, rank: int,
                      threads: int | None = 1
                      ) -> tuple[dict[str, float], int]:
        """Best-of-N timed prefix runs per candidate, scaled to full-tree
        seconds.  Returns ``(seconds per candidate, probed nnz)``."""
        prefix = root_prefix_tree(tree, self.probe_nnz)
        factors = self._probe_factors(tree, mode, rank)
        scale = tree.nnz / max(prefix.nnz, 1)
        results: dict[str, float] = {}
        for cand in candidates:
            tiling = CSFTiling(prefix,
                               slab_nnz_target=cand.slab_nnz_target)
            ws = KernelWorkspace(tiling)

            def run() -> None:
                mttkrp_csf(prefix, factors, mode, tiling=tiling,
                           workspace=ws, threads=threads)

            run()  # warm-up: build pooled buffers untimed
            best = float("inf")
            for _ in range(self.probe_repeats):
                tick = self.clock()
                run()
                best = min(best, self.clock() - tick)
            seconds = max(best, 0.0) * scale
            results[cand.name] = seconds
            record_tune_probe(mode=mode, backend=cand.name,
                              probe_nnz=prefix.nnz, seconds=max(best, 0.0),
                              scaled_seconds=seconds)
        return results, prefix.nnz

    # -- selection ------------------------------------------------------
    @staticmethod
    def _select(candidates: Sequence[BackendCandidate],
                scores: Mapping[str, float]) -> BackendCandidate:
        # Ties break toward the engine default, then toward fewer slabs
        # (less dispatch) — deterministic for any score map.
        return min(candidates, key=lambda c: (
            scores[c.name],
            0 if c.slab_nnz_target == DEFAULT_SLAB_NNZ else 1,
            -c.slab_nnz_target))

    def decide_tree(self, tree: CSFTensor, mode: int, rank: int,
                    threads: int | None = 1,
                    executor: "str | ExecutorBase | None" = None,
                    fingerprint: str | None = None) -> ModeDecision:
        """Tune one mode-rooted tree; records the decision when enabled."""
        require(rank >= 1, "rank must be positive")
        candidates = candidate_backends(tree.nnz, tree.nslices, self.ladder)
        if not candidates:
            decision = ModeDecision(mode=mode, backend="csf",
                                    slab_nnz_target=DEFAULT_SLAB_NNZ,
                                    n_slabs=0, source="default")
            record_tune_decision(decision)
            return decision
        with span("tune", mode=mode):
            model = {c.name: self.model_seconds(tree, c, rank, threads)
                     for c in candidates}
            if (self.mode == "measure" and len(candidates) > 1
                    and tree.nnz >= self.min_probe_nnz):
                decision = self._decide_measured(
                    tree, candidates, model, mode, rank, threads,
                    executor, fingerprint)
            else:
                best = self._select(candidates, model)
                decision = ModeDecision(
                    mode=mode, backend=best.name,
                    slab_nnz_target=best.slab_nnz_target,
                    n_slabs=best.n_slabs, source="model",
                    model_seconds=model)
        record_tune_decision(decision)
        return decision

    def _decide_measured(self, tree, candidates, model, mode, rank,
                         threads, executor, fingerprint) -> ModeDecision:
        executor_name = resolve_executor(executor).name
        key = None
        if self.cache is not None and fingerprint:
            key = cache_key(fingerprint, mode, rank,
                            effective_threads(threads), executor_name)
            entry = self.cache.get(key)
            if entry is not None:
                return ModeDecision(
                    mode=mode, backend=entry["backend"],
                    slab_nnz_target=entry["slab_nnz_target"],
                    n_slabs=entry["n_slabs"], source="cache",
                    model_seconds=model,
                    probe_seconds=dict(entry["probe_seconds"]),
                    probe_nnz=int(entry.get("probe_nnz", 0)))
        probes, probe_nnz = self.probe_seconds(
            tree, candidates, mode, rank, threads=threads)
        best = self._select(candidates, probes)
        decision = ModeDecision(
            mode=mode, backend=best.name,
            slab_nnz_target=best.slab_nnz_target, n_slabs=best.n_slabs,
            source="measure", model_seconds=model,
            probe_seconds=probes, probe_nnz=probe_nnz)
        if key is not None:
            self.cache.put(key, {
                "backend": best.name,
                "slab_nnz_target": best.slab_nnz_target,
                "n_slabs": best.n_slabs,
                "probe_seconds": probes,
                "probe_nnz": probe_nnz})
        return decision

    # -- engine-level entry points --------------------------------------
    def tune_trees(self, trees, rank: int, threads: int | None = 1,
                   executor: "str | ExecutorBase | None" = None,
                   fingerprint: str | None = None,
                   modes: Sequence[int] | None = None) -> TuningReport:
        """Tune the trees of an :class:`~repro.tensor.csf.AllModeCSF`.

        *modes* names the root modes to tune (default: every mode).
        """
        if fingerprint is None and self.mode == "measure" \
                and self.cache is not None:
            from ..robustness.checkpoint import tensor_fingerprint
            fingerprint = tensor_fingerprint(trees.tensor)["sha1"]
        decisions = tuple(
            self.decide_tree(trees.csf(mode), mode, rank, threads=threads,
                             executor=executor, fingerprint=fingerprint)
            for mode in (range(trees.nmodes) if modes is None else modes))
        return TuningReport(tune_mode=self.mode, rank=rank,
                            threads=effective_threads(threads),
                            executor=resolve_executor(executor).name,
                            fingerprint=fingerprint, decisions=decisions)

    def tune_engine(self, engine, rank: int) -> TuningReport:
        """Tune an :class:`~repro.kernels.dispatch.MTTKRPEngine` in place.

        Must run before the engine builds any tiling (the decompositions
        are static); :meth:`MTTKRPEngine.apply_tuning` enforces that.
        """
        report = self.tune_trees(
            engine.trees, rank, threads=engine.threads,
            executor=engine._executor,
            modes=(0,) if engine.csf_allocation == "one" else None)
        engine.apply_tuning(report)
        return report
