"""Model-priced MTTKRP slab-plan autotuner (paper Section VI).

Section VI leaves open "automatically select the best data structure ...
during MTTKRP"; on the *factor* side the engine's density rule
(:func:`repro.sparse.analysis.choose_representation`) answers it.  This
module covers the *tensor* side: among the CSF execution plans (the
slab-tiled kernels at different slab-nnz targets) it picks, per tree, the
plan the analytic cost model prices cheapest.

The selector is deliberately restricted to plans inside the ``csf``
bit-identity family: every candidate is the same upward sweep over the
same tree, only decomposed into different contiguous root-slice slabs, so
any choice produces **bit-identical** output (the contract
:class:`repro.tensor.tiling.CSFTiling` documents and the differential
harness enforces).  Tuning is therefore performance-only by construction
— cross-family backends (COO, sparse-factor CSR/CSR-H) are priced for
the report but never auto-selected.

Two tune modes (``tune=`` on :func:`repro.fit` /
:func:`~repro.kernels.dispatch.make_engine`, or ``REPRO_TUNE``):

``"model"`` (the default)
    Rank candidates purely on the analytic cost model
    (:func:`repro.machine.kernels.mttkrp_kernel_cost` +
    :func:`repro.machine.cost.kernel_time`, with a per-slab dispatch
    surcharge and a cache-residency credit for slab-sized working sets).
    No timing, no disk I/O — safe to run on every fit.
``"off"``
    No tuning; the engine keeps its explicit / default slab target.

Decisions flow through the observability registry (``tune_*`` metrics).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..config import AUTOTUNE_SLAB_LADDER, DEFAULT_SLAB_NNZ
from ..machine.cost import kernel_time
from ..machine.kernels import mttkrp_kernel_cost
from ..machine.spec import PAPER_MACHINE, MachineSpec
from ..observability import record_tune_decision, span
from ..parallel.threadpool import effective_threads
from ..tensor.csf import CSFTensor
from ..tensor.tiling import nnz_per_root_slice
from ..validation import require

#: Environment override for the tune mode (``off`` / ``model``); an
#: explicit ``tune=`` argument wins over it.
TUNE_ENV_VAR = "REPRO_TUNE"

TUNE_MODES = ("off", "model")

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
    #: ``"model"`` (priced on the analytic model) or ``"default"``
    #: (nothing to choose between — e.g. an empty tree).
    source: str
    #: Modelled seconds per candidate.
    model_seconds: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"mode": self.mode, "backend": self.backend,
                "slab_nnz_target": self.slab_nnz_target,
                "n_slabs": self.n_slabs, "source": self.source,
                "model_seconds": dict(self.model_seconds)}


@dataclass(frozen=True)
class TuningReport:
    """Per-mode decisions for one (tensor, rank, threads)."""

    tune_mode: str
    rank: int
    threads: int
    decisions: tuple[ModeDecision, ...]

    def decision(self, mode: int) -> ModeDecision | None:
        for d in self.decisions:
            if d.mode == mode:
                return d
        return None

    def slab_targets(self) -> dict[int, int]:
        """Per-root-mode slab targets, ready for the engine's tilings."""
        return {d.mode: d.slab_nnz_target for d in self.decisions}

    def as_dict(self) -> dict:
        return {"tune_mode": self.tune_mode, "rank": self.rank,
                "threads": self.threads,
                "decisions": [d.as_dict() for d in self.decisions]}


# ----------------------------------------------------------------------
# The autotuner
# ----------------------------------------------------------------------

class BackendAutotuner:
    """Per-(tensor, mode, rank) selector over csf-family execution plans.

    Parameters
    ----------
    mode:
        ``"off"`` / ``"model"``; ``None`` resolves ``REPRO_TUNE``
        (default ``"model"``).
    machine:
        Spec the analytic model prices against (default: the paper's).
    ladder:
        Slab-target rungs to consider (default
        :data:`repro.config.AUTOTUNE_SLAB_LADDER`).
    """

    def __init__(self, mode: str | None = None,
                 machine: MachineSpec = PAPER_MACHINE,
                 ladder: Sequence[int] | None = None):
        self.mode = resolve_tune_mode(mode)
        self.machine = machine
        self.ladder = tuple(ladder) if ladder is not None \
            else AUTOTUNE_SLAB_LADDER

    def candidates(self, tree: CSFTensor) -> list[BackendCandidate]:
        """The candidate plans this tuner would rank for *tree*."""
        return candidate_backends(tree.nnz, tree.nslices, self.ladder)

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
                    threads: int | None = 1) -> ModeDecision:
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
            best = self._select(candidates, model)
            decision = ModeDecision(
                mode=mode, backend=best.name,
                slab_nnz_target=best.slab_nnz_target,
                n_slabs=best.n_slabs, source="model", model_seconds=model)
        record_tune_decision(decision)
        return decision

    # -- engine-level entry points --------------------------------------
    def tune_trees(self, trees, rank: int, threads: int | None = 1,
                   modes: Sequence[int] | None = None) -> TuningReport:
        """Tune the trees of an :class:`~repro.tensor.csf.AllModeCSF`.

        *modes* names the root modes to tune (default: every mode).
        """
        decisions = tuple(
            self.decide_tree(trees.csf(mode), mode, rank, threads=threads)
            for mode in (range(trees.nmodes) if modes is None else modes))
        return TuningReport(tune_mode=self.mode, rank=rank,
                            threads=effective_threads(threads),
                            decisions=decisions)

    def tune_engine(self, engine, rank: int) -> TuningReport:
        """Tune an :class:`~repro.kernels.dispatch.MTTKRPEngine` in place.

        Must run before the engine builds any tiling (the decompositions
        are static); :meth:`MTTKRPEngine.apply_tuning` enforces that.
        """
        report = self.tune_trees(
            engine.trees, rank, threads=engine.threads,
            modes=(0,) if engine.csf_allocation == "one" else None)
        engine.apply_tuning(report)
        return report
