"""Differential sweep runner: one computation, every backend, one verdict.

The paper's equivalence claims (Section III-B: blocked ADMM reaches the
same subproblem optimum as unblocked; Section IV: every MTTKRP path —
COO, CSF, tiled/threaded CSF, streamed CSF, sparse-factor CSR/CSR-H —
computes the same ``K``) are enforced here as machine-checked sweeps
instead of piecemeal hand-written assertions:

* :func:`run_mttkrp_sweep` executes one logical MTTKRP across the whole
  backend × threads × slab-target × byte-budget grid on strategy-generated
  adversarial tensors, asserting **bit-identical** results inside each
  family that promises it (the CSF kernels are bit-identical for any
  slab/thread decomposition) and oracle-tolerance agreement across
  families (different summation orders);
* :func:`run_admm_sweep` solves one mode subproblem blocked and
  unblocked from identical warm starts, asserts bitwise identity of the
  blocked solve with the per-block reference loop, tolerance agreement
  across the two formulations, and certifies both solutions with the
  KKT oracle;
* :func:`run_prox_sweep` checks every registered proximity operator
  against its variational definition;
* :func:`compare_factor_sets` / :func:`compare_fits` diff whole
  factorization outputs (used for determinism, checkpoint/resume, and
  fault-detection tests).

Every failure carries a **seed-replay string** — a shell command that
rebuilds the exact failing case from its spec and re-runs the
comparison:

    PYTHONPATH=src python -m repro.testing \\
        --replay 'v1:seed=123:index=7' --mode 2 --backend 'csf-tiled[t=4,s=32]'

The module is also the nightly fuzz entry point
(``python -m repro.testing --seed <rotating> --cases 40``).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..admm.blocked import blocked_admm_update
from ..admm.solver import admm_update
from ..admm.state import AdmmState
from ..constraints.registry import make_constraint
from ..core.aoadmm import fit_aoadmm
from ..core.options import AOADMMOptions
from ..kernels.dispatch import MTTKRPEngine, mttkrp
from ..kernels.mttkrp_coo import mttkrp_coo
from ..kernels.native import NativeUnavailable, load_kernels
from ..linalg.grams import hadamard_gram_excluding
from ..sparse.csr import CSRMatrix
from ..sparse.hybrid import HybridFactor
from ..tensor.coo import COOTensor
from ..tensor.csf import AllModeCSF
from ..validation import require
from .oracles import (
    check_prox,
    kkt_certificate,
    mttkrp_oracle,
    per_block_admm_reference,
)
from .strategies import (
    TensorCase,
    case_from_spec,
    constraint_cases,
    factors_for,
    tensor_cases,
)

#: Default comparison tolerances for cross-family (different summation
#: order) agreement.  Inside a family the contract is bitwise — no
#: tolerance at all.
DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-10

#: Row-separable *convex* constraints used by the ADMM sweep (the blocked
#: reformulation applies, and the subproblem optimum is unique so the two
#: formulations must meet at it).
ADMM_SWEEP_CONSTRAINTS = ("nonneg", "l1", "box", "simplex")


def replay_command(spec: str, mode: int | None = None,
                   backend: str | None = None) -> str:
    """The shell command that replays one failing comparison."""
    cmd = ("PYTHONPATH=src python -m repro.testing "
           f"--replay '{spec}'")
    if mode is not None:
        cmd += f" --mode {mode}"
    if backend is not None:
        cmd += f" --backend '{backend}'"
    return cmd


@dataclass(frozen=True)
class Disagreement:
    """One failed comparison, with everything needed to reproduce it."""

    #: ``"oracle"`` (backend vs dense oracle), ``"bitwise"`` (inside a
    #: bit-identity family), ``"cross"`` (blocked vs unblocked, fit vs
    #: fit), ``"kkt"`` (certificate violation), ``"prox"``, or
    #: ``"storage"`` (an integrity contract violated under disk faults).
    kind: str
    case: str
    backend: str
    reference: str
    detail: str
    #: Largest absolute elementwise difference (``nan`` when a result
    #: contained non-finite values; 0 for non-elementwise checks).
    max_abs_diff: float
    mode: int | None = None
    replay: str = ""

    def __str__(self) -> str:
        where = f" mode={self.mode}" if self.mode is not None else ""
        line = (f"[{self.kind}] {self.backend} vs {self.reference} "
                f"on {self.case}{where}: {self.detail}")
        if self.replay:
            line += f"\n    replay: {self.replay}"
        return line


@dataclass
class SweepReport:
    """Aggregate outcome of one differential sweep."""

    cases: int = 0
    comparisons: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def merge(self, other: "SweepReport") -> "SweepReport":
        self.cases += other.cases
        self.comparisons += other.comparisons
        self.disagreements.extend(other.disagreements)
        return self

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{status}: {self.comparisons} comparisons over "
                 f"{self.cases} cases, "
                 f"{len(self.disagreements)} disagreement(s)"]
        lines.extend(str(d) for d in self.disagreements)
        return "\n".join(lines)

    def raise_for_failures(self) -> None:
        """Raise ``AssertionError`` with replay strings if anything failed."""
        if not self.ok:
            raise AssertionError("differential sweep failed\n"
                                 + self.summary())

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "cases": self.cases,
            "comparisons": self.comparisons,
            "disagreements": [
                {"kind": d.kind, "case": d.case, "backend": d.backend,
                 "reference": d.reference, "mode": d.mode,
                 "detail": d.detail, "max_abs_diff": d.max_abs_diff,
                 "replay": d.replay}
                for d in self.disagreements],
        }


# ----------------------------------------------------------------------
# MTTKRP backends
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BackendSpec:
    """One MTTKRP execution path in the sweep grid.

    ``factory(tensor)`` returns a per-tensor kernel ``(factors, mode) ->
    ndarray`` (so engines/trees amortize across the tensor's modes).
    Backends sharing a ``family`` promise **bitwise** identical results;
    across families agreement is tolerance-bounded against the oracle.
    """

    name: str
    family: str
    factory: Callable[[COOTensor], Callable[[list, int], np.ndarray]]


def _engine_backend(tensor: COOTensor, *, repr_policy: str,
                    threads: int | None,
                    slab_nnz_target: int | None,
                    executor: str | None = None) -> Callable:
    engine = MTTKRPEngine(tensor, repr_policy=repr_policy,
                          sparsity_threshold=2.0 if repr_policy != "dense"
                          else 0.2,
                          threads=threads, slab_nnz_target=slab_nnz_target,
                          executor=executor)
    engine.trees.build_all()
    primed: set[int] = set()

    def kernel(factors: list, mode: int) -> np.ndarray:
        if repr_policy != "dense":
            # The sparse-factor kernel reads the leaf factor through its
            # stored representation — keep it in sync with the inputs.
            for m in range(tensor.nmodes):
                engine.update_factor(m, factors[m])
        # The engine returns a pooled workspace buffer (valid until the
        # next call for the same mode): copy for cross-backend diffing.
        out = np.array(engine.mttkrp(factors, mode), copy=True)
        primed.add(mode)
        return out

    return kernel


def _sharded_backend(tensor: COOTensor, max_bytes_in_core: int | None,
                     repr_policy: str = "dense") -> Callable:
    """Out-of-core grid point: shard to a temp store, stream MTTKRP.

    The store holds the same mode-rooted trees split at root-slice
    boundaries, so the streamed result is contractually **bitwise**
    identical to the in-core backends of its family — ``csf`` when
    dense, ``sparse-csr`` / ``sparse-csr-h`` with a *repr_policy* of
    ``csr`` / ``hybrid`` — for any byte budget.  The temp shard
    directory lives until the kernel closure is collected
    (finalizer-backed), covering the whole sweep over the tensor's
    modes.
    """
    import weakref

    from ..tensor.store import open_tensor

    # Budget 1 here only forces the shard-to-temp-store path; the
    # engine budget below is the one under test.
    store = open_tensor(tensor, max_bytes_in_core=1, slab_nnz_target=32)
    store.max_bytes_in_core = max_bytes_in_core
    engine = MTTKRPEngine(store, repr_policy=repr_policy,
                          sparsity_threshold=2.0, executor="serial")

    def kernel(factors: list, mode: int) -> np.ndarray:
        if repr_policy != "dense":
            for m in range(tensor.nmodes):
                engine.update_factor(m, factors[m])
        return np.array(engine.mttkrp(factors, mode), copy=True)

    weakref.finalize(kernel, store.close)
    return kernel


def _auto_backend(tensor: COOTensor) -> Callable:
    """Model-tuned grid point: engine whose slab plans the tuner chose.

    Joins the ``csf`` family — the autotuner only ever selects among
    csf-family slab decompositions (``docs/autotuning.md``), so its
    choice is contractually **bitwise** invisible.  Tuning happens
    lazily on the first call, when the rank is known from the factors.
    """
    from ..kernels.autotune import BackendAutotuner

    engine = MTTKRPEngine(tensor, repr_policy="dense", threads=1)
    engine.trees.build_all()
    tuner = BackendAutotuner(mode="model")
    tuned: list[int] = []

    def kernel(factors: list, mode: int) -> np.ndarray:
        if not tuned:
            tuner.tune_engine(engine, int(np.asarray(factors[0]).shape[1]))
            tuned.append(1)
        return np.array(engine.mttkrp(factors, mode), copy=True)

    return kernel


def _isa_backend(tensor: COOTensor, kernel,
                 leaf: Callable | None = None) -> Callable:
    """One ISA variant of the compiled root kernel on whole trees.

    *kernel* is a :class:`~repro.kernels.native.RootKernel` from
    :func:`~repro.kernels.native.load_kernels`, run without the loader's
    self-check, so every variant the CPU runs is held to its family
    bitwise, not only the one the loader serves.  With a *leaf*
    constructor (``CSRMatrix.from_dense`` or ``HybridFactor``) the deep
    factor is read through that representation, as the sparse engines
    of the ``sparse-csr`` and ``sparse-csr-h`` families read it.
    """
    trees = AllModeCSF(tensor)

    def run(factors: list, mode: int) -> np.ndarray:
        tree = trees.csf(mode)
        rank = int(np.asarray(factors[0]).shape[1])
        out = np.zeros((tensor.shape[mode], rank))
        deep = (None if leaf is None
                else leaf(np.asarray(factors[tree.mode_order[-1]])))
        kernel.bind(tree.mode_order, factors, out, leaf=deep)(tree)
        return out

    return run


def _native_kernels() -> dict:
    """Every compiled variant this CPU runs; none without a compiler."""
    try:
        return load_kernels()
    except NativeUnavailable:
        return {}


def mttkrp_backend_specs(threads: Sequence[int] = (1, 2, 4),
                         slab_targets: Sequence[int] = (32, 100_000),
                         sparse_factors: bool = True,
                         executors: Sequence[str] = (),
                         ooc_budgets: Sequence[int | None] = (None, 4096),
                         ) -> list[BackendSpec]:
    """The default sweep grid over every MTTKRP execution path.

    The tiled backends resolve their executor from the environment
    (``REPRO_EXECUTOR``).  *executors* additionally pins named executors
    as explicit grid points, holding e.g. ``serial`` and ``thread`` to
    the same **bitwise** family anchor within one run.  Every ISA
    variant of the compiled root kernel that the CPU runs joins the
    ``csf`` family as ``csf-native[isa=<variant>]`` and, with
    *sparse_factors*, the two sparse families with CSR and CSR-H deep
    factors.
    """
    specs = [
        BackendSpec("coo", "coo",
                    lambda t: lambda f, m: mttkrp_coo(t, f, m)),
        # Untiled mode-rooted CSF; same family as the tiled variants —
        # slab decomposition is contractually bit-invisible.
        BackendSpec("csf", "csf",
                    lambda t: lambda f, m: mttkrp(t, f, m, method="csf")),
        # The autotuned paths: same family, because the autotuner only
        # selects among csf-family slab plans.  "auto" is the stateless
        # dispatch default; auto[model] pins the engine tuner so a
        # model decision can never drift bitwise from the manual
        # anchors.
        BackendSpec("auto", "csf",
                    lambda t: lambda f, m: mttkrp(t, f, m, method="auto")),
        BackendSpec("auto[model]", "csf", _auto_backend),
    ]
    for t in threads:
        for s in slab_targets:
            specs.append(BackendSpec(
                f"csf-tiled[t={t},s={s}]", "csf",
                lambda tensor, t=t, s=s: _engine_backend(
                    tensor, repr_policy="dense", threads=t,
                    slab_nnz_target=s)))
    small_slab = min(slab_targets) if slab_targets else 32
    for x in executors:
        for t in (1, max(threads) if threads else 4):
            specs.append(BackendSpec(
                f"csf-tiled[x={x},t={t},s={small_slab}]", "csf",
                lambda tensor, x=x, t=t: _engine_backend(
                    tensor, repr_policy="dense", threads=t,
                    slab_nnz_target=small_slab, executor=x)))
    kernels = _native_kernels()
    for isa, kernel in kernels.items():
        specs.append(BackendSpec(
            f"csf-native[isa={isa}]", "csf",
            lambda tensor, k=kernel: _isa_backend(tensor, k)))
    if sparse_factors:
        specs.append(BackendSpec(
            "sparse-csr", "sparse-csr",
            lambda tensor: _engine_backend(tensor, repr_policy="csr",
                                           threads=1, slab_nnz_target=None)))
        specs.append(BackendSpec(
            "sparse-csr-h", "sparse-csr-h",
            lambda tensor: _engine_backend(tensor, repr_policy="hybrid",
                                           threads=1, slab_nnz_target=None)))
        # Streamed sparse deep factors need the compiled kernel (a
        # store without it computes dense).
        for b in ooc_budgets if kernels else ():
            specs.append(BackendSpec(
                f"sharded-csr[b={b}]", "sparse-csr",
                lambda tensor, b=b: _sharded_backend(tensor, b, "csr")))
            specs.append(BackendSpec(
                f"sharded-csr-h[b={b}]", "sparse-csr-h",
                lambda tensor, b=b: _sharded_backend(tensor, b, "hybrid")))
        for isa, kernel in kernels.items():
            specs.append(BackendSpec(
                f"sparse-csr-native[isa={isa}]", "sparse-csr",
                lambda tensor, k=kernel: _isa_backend(
                    tensor, k, CSRMatrix.from_dense)))
            specs.append(BackendSpec(
                f"sparse-csr-h-native[isa={isa}]", "sparse-csr-h",
                lambda tensor, k=kernel: _isa_backend(
                    tensor, k, HybridFactor)))
    # Out-of-core streaming over a temp sharded store.  Family "csf":
    # slab residency/eviction is contractually bit-invisible, so every
    # budget (including a starvation-level one) must match the in-core
    # CSF anchor bitwise.
    for b in ooc_budgets:
        specs.append(BackendSpec(
            f"sharded[b={b}]", "csf",
            lambda tensor, b=b: _sharded_backend(tensor, b)))
    return specs


def _diff(a: np.ndarray, b: np.ndarray) -> float:
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return float("nan")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


def _agrees(a: np.ndarray, b: np.ndarray, rtol: float, atol: float) -> bool:
    return (a.shape == b.shape and np.all(np.isfinite(a))
            and np.all(np.isfinite(b))
            and np.allclose(a, b, rtol=rtol, atol=atol))


def run_mttkrp_sweep(cases: Sequence[TensorCase], rank: int = 4,
                     backends: Sequence[BackendSpec] | None = None,
                     modes: Sequence[int] | None = None,
                     rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> SweepReport:
    """Run every backend on every case × mode; compare oracle + families."""
    if backends is None:
        backends = mttkrp_backend_specs()
    report = SweepReport(cases=len(cases))
    for case in cases:
        tensor = case.tensor
        factors = factors_for(case, rank)
        kernels = [(spec, spec.factory(tensor)) for spec in backends]
        sweep_modes = (range(tensor.nmodes) if modes is None
                       else [m for m in modes if m < tensor.nmodes])
        for mode in sweep_modes:
            oracle = mttkrp_oracle(tensor, factors, mode)
            family_reference: dict[str, tuple[str, np.ndarray]] = {}
            for spec, kernel in kernels:
                result = kernel(factors, mode)
                report.comparisons += 1
                if not _agrees(result, oracle, rtol, atol):
                    report.disagreements.append(Disagreement(
                        kind="oracle", case=case.spec, backend=spec.name,
                        reference="dense-oracle", mode=mode,
                        detail=f"max |diff| = {_diff(result, oracle):.3e} "
                               f"(rtol={rtol}, atol={atol})",
                        max_abs_diff=_diff(result, oracle),
                        replay=replay_command(case.spec, mode, spec.name)))
                anchor = family_reference.get(spec.family)
                if anchor is None:
                    family_reference[spec.family] = (spec.name, result)
                    continue
                anchor_name, anchor_result = anchor
                report.comparisons += 1
                if not np.array_equal(result, anchor_result):
                    report.disagreements.append(Disagreement(
                        kind="bitwise", case=case.spec, backend=spec.name,
                        reference=anchor_name, mode=mode,
                        detail="family promises bit-identical results; "
                               f"max |diff| = {_diff(result, anchor_result):.3e}",
                        max_abs_diff=_diff(result, anchor_result),
                        replay=replay_command(case.spec, mode, spec.name)))
    return report


# ----------------------------------------------------------------------
# ADMM sweep: blocked vs unblocked with KKT certificates
# ----------------------------------------------------------------------

def run_admm_sweep(cases: Sequence[TensorCase], rank: int = 4,
                   constraints: Sequence[str] = ADMM_SWEEP_CONSTRAINTS,
                   block_sizes: Sequence[int] = (3,),
                   threads: Sequence[int] = (1, 2, 4),
                   inner_tolerance: float = 1e-12,
                   max_iterations: int = 3000,
                   agreement_rtol: float = 1e-3,
                   agreement_atol: float = 1e-3,
                   kkt_tol: float = 1e-4) -> SweepReport:
    """Blocked-vs-unblocked equivalence (Section III-B) on one subproblem.

    For each case: build the mode-0 subproblem data ``(K, G)`` through
    the **oracle** MTTKRP and the Gram definition, solve it unblocked and
    blocked (every block size) from identical warm starts run to a tight
    inner tolerance, then assert

    * bitwise identity of primal, dual and report with
      :func:`repro.testing.oracles.per_block_admm_reference` (the fused
      compiled loop, its chunks of blocks fanned out on each of *threads*
      workers of the ``thread`` executor, or the batched NumPy active
      set without a compiler or for other constraints, must do exactly
      what the one-block-at-a-time loop does);
    * tolerance-bounded agreement between the blocked and unblocked
      primal solutions (unique optimum of the convex subproblem).  The
      documented tolerance follows from the stopping rule: each solve
      halts once its *squared* relative residuals drop below
      ``inner_tolerance``, so each iterate lies within
      ``O(sqrt(inner_tolerance))`` of the optimum and two independent
      solves agree to that order (defaults: ``sqrt(1e-12) = 1e-6``
      guaranteed scale — times a conditioning-dependent constant —
      asserted at rtol ``1e-3`` / atol ``1e-3``, comfortably above the
      worst gap observed over hundreds of seeded cases (~1.5e-4) and
      far below any genuine formulation divergence).  Checked only when both solves converged — a
      stalled solve (iteration cap) makes no distance-to-optimum
      promise;
    * KKT certificates from :func:`repro.testing.oracles.kkt_certificate`
      for every **converged** state — the paper's "same factors" claim is
      certified rather than merely compared.  States that hit the
      iteration cap without meeting the inner tolerance (degenerate
      Grams from 1-wide modes stall ADMM) are still compared across
      formulations but not certified: the certificate is a statement
      about converged solves.
    """
    report = SweepReport(cases=len(cases))
    for case_index, case in enumerate(cases):
        tensor = case.tensor
        factors = factors_for(case, rank, leaf_sparsity=0.0)
        kmat = mttkrp_oracle(tensor, factors, 0)
        gram = hadamard_gram_excluding(factors, 0)
        name = constraints[case_index % len(constraints)]
        constraint = make_constraint(name)
        init = np.abs(factors[0]) + 0.1  # feasible for every sweep constraint

        base_state = AdmmState.from_factor(init)
        base_report = admm_update(base_state, kmat, gram, constraint,
                                  tolerance=inner_tolerance,
                                  max_iterations=max_iterations)
        if base_report.converged:
            cert = kkt_certificate(base_state, kmat, gram, constraint,
                                   rho=base_report.rho)
            report.comparisons += 1
            if not cert.satisfied(kkt_tol):
                report.disagreements.append(Disagreement(
                    kind="kkt", case=case.spec,
                    backend=f"unblocked[{name}]",
                    reference="kkt-oracle", mode=0,
                    detail=f"max KKT residual {cert.max_residual:.3e} > "
                           f"{kkt_tol}",
                    max_abs_diff=cert.max_residual,
                    replay=replay_command(case.spec, 0)))

        for block_size in block_sizes:
            reference = AdmmState.from_factor(init)
            ref_report = per_block_admm_reference(
                reference, kmat, gram, constraint,
                tolerance=inner_tolerance, max_iterations=max_iterations,
                block_size=block_size)
            for t in threads:
                state = AdmmState.from_factor(init)
                blk_report = blocked_admm_update(
                    state, kmat, gram, constraint,
                    tolerance=inner_tolerance,
                    max_iterations=max_iterations,
                    block_size=block_size, executor="thread", threads=t)
                report.comparisons += 1
                if (state.primal.tobytes() != reference.primal.tobytes()
                        or state.dual.tobytes() != reference.dual.tobytes()
                        or blk_report != ref_report):
                    diff = _diff(state.primal, reference.primal)
                    report.disagreements.append(Disagreement(
                        kind="bitwise", case=case.spec,
                        backend=f"blocked[{name},b={block_size},t={t}]",
                        reference=f"per-block[{name},b={block_size}]",
                        mode=0,
                        detail="blocked ADMM must be bit-identical to the "
                               "per-block reference loop, report included; "
                               f"max |diff| = {diff:.3e}",
                        max_abs_diff=diff,
                        replay=replay_command(case.spec, 0)))
            # Every blocked state above must equal the reference bitwise,
            # so the cross-formulation and KKT checks run on it once.
            state, blk_report = reference, ref_report
            label = f"blocked[{name},b={block_size}]"
            if blk_report.converged and base_report.converged:
                report.comparisons += 1
                if not _agrees(state.primal, base_state.primal,
                               agreement_rtol, agreement_atol):
                    report.disagreements.append(Disagreement(
                        kind="cross", case=case.spec, backend=label,
                        reference=f"unblocked[{name}]", mode=0,
                        detail="blocked and unblocked solutions differ "
                               "by max |diff| = "
                               f"{_diff(state.primal, base_state.primal):.3e}"
                               f" (rtol={agreement_rtol}, "
                               f"atol={agreement_atol})",
                        max_abs_diff=_diff(state.primal,
                                           base_state.primal),
                        replay=replay_command(case.spec, 0)))
            if blk_report.converged:
                cert = kkt_certificate(state, kmat, gram, constraint,
                                       rho=blk_report.rho)
                report.comparisons += 1
                if not cert.satisfied(kkt_tol):
                    report.disagreements.append(Disagreement(
                        kind="kkt", case=case.spec, backend=label,
                        reference="kkt-oracle", mode=0,
                        detail=f"max KKT residual "
                               f"{cert.max_residual:.3e} > {kkt_tol}",
                        max_abs_diff=cert.max_residual,
                        replay=replay_command(case.spec, 0)))
    return report


# ----------------------------------------------------------------------
# Prox sweep
# ----------------------------------------------------------------------

def run_prox_sweep(seed: int, trials: int = 24,
                   tol: float = 1e-6) -> SweepReport:
    """Check every registered proximity operator against its definition."""
    cases = constraint_cases(seed)
    report = SweepReport(cases=len(cases))
    for i, (name, constraint, matrix, step) in enumerate(cases):
        gen = np.random.default_rng([0x9807, seed, i])
        check = check_prox(constraint, matrix, step, gen, trials=trials)
        report.comparisons += 1
        if not check.ok(tol):
            report.disagreements.append(Disagreement(
                kind="prox", case=f"constraint={name} seed={seed}",
                backend=f"prox[{name}]", reference="variational-oracle",
                detail=f"feasible={check.feasible}, "
                       f"worst objective violation "
                       f"{check.worst_violation:.3e}, worst directional "
                       f"derivative {check.worst_derivative:.3e}",
                max_abs_diff=max(check.worst_violation, 0.0)))
    return report


# ----------------------------------------------------------------------
# Whole-fit differencing (determinism / checkpoint / fault detection)
# ----------------------------------------------------------------------

def compare_factor_sets(case_spec: str, label_a: str, label_b: str,
                        factors_a: Sequence[np.ndarray],
                        factors_b: Sequence[np.ndarray],
                        bitwise: bool = True,
                        rtol: float = DEFAULT_RTOL,
                        atol: float = DEFAULT_ATOL) -> SweepReport:
    """Diff two factor lists mode by mode into a :class:`SweepReport`."""
    report = SweepReport(cases=1)
    require(len(factors_a) == len(factors_b),
            "factor lists must have matching mode counts")
    for mode, (fa, fb) in enumerate(zip(factors_a, factors_b)):
        fa, fb = np.asarray(fa), np.asarray(fb)
        report.comparisons += 1
        same = (np.array_equal(fa, fb) if bitwise
                else _agrees(fa, fb, rtol, atol))
        if not same:
            report.disagreements.append(Disagreement(
                kind="cross", case=case_spec, backend=label_b,
                reference=label_a, mode=mode,
                detail=("bitwise mismatch" if bitwise else
                        f"tolerance mismatch (rtol={rtol}, atol={atol})")
                       + f"; max |diff| = {_diff(fa, fb):.3e}",
                max_abs_diff=_diff(fa, fb),
                replay=replay_command(case_spec, mode)))
    return report


def compare_fits(case: TensorCase, options_a: AOADMMOptions,
                 options_b: AOADMMOptions, label_a: str = "fit-a",
                 label_b: str = "fit-b", bitwise: bool = True,
                 rtol: float = DEFAULT_RTOL,
                 atol: float = DEFAULT_ATOL) -> SweepReport:
    """Run ``fit_aoadmm`` under two option sets from one shared init and
    diff the resulting factors.

    This is how a deliberately perturbed kernel (via
    :class:`repro.robustness.faults.FaultInjector` on ``options_b``) is
    *caught*: the perturbed run's factors disagree with the clean run's,
    and the report's replay string rebuilds the exact tensor case.
    """
    from ..core.init import init_factors
    init = init_factors(case.tensor, options_a.rank, options_a.init,
                        seed=case.seed)
    result_a = fit_aoadmm(case.tensor, options_a,
                          initial_factors=[f.copy() for f in init])
    result_b = fit_aoadmm(case.tensor, options_b,
                          initial_factors=[f.copy() for f in init])
    return compare_factor_sets(case.spec, label_a, label_b,
                               result_a.model.factors,
                               result_b.model.factors,
                               bitwise=bitwise, rtol=rtol, atol=atol)


# ----------------------------------------------------------------------
# Storage-fault sweep: no silent wrong answer under disk corruption
# ----------------------------------------------------------------------

def run_storage_fault_sweep(cases: Sequence[TensorCase], rank: int = 4,
                            kinds: Sequence[str] | None = None,
                            max_iterations: int = 4,
                            seed: int = 0) -> SweepReport:
    """Prove the storage-integrity contract under injected disk faults.

    For each case the tensor is sharded to a store and a fit is run as
    the unfaulted anchor.  Then, for every storage fault kind
    (:data:`repro.robustness.faults.STORAGE_FAULT_KINDS`) and both
    rebuild postures, a slab is deterministically damaged on disk and
    the fit re-run:

    * store **with** its source attached — the slab must be
      quarantined and rebuilt, and the fit must complete **bitwise**
      identical to the unfaulted anchor;
    * store **without** a source — the fit must fail loudly with
      :class:`~repro.integrity.IntegrityError`; completing at all is a
      silent-wrong-answer finding.

    A kill-during-shard scenario (:class:`ShardCrashPlan`) additionally
    asserts the torn-write contract: the crashed target never parses as
    a store, and a clean re-shard fits bit-identically.
    """
    import shutil
    import tempfile
    import warnings
    from pathlib import Path

    from ..core.init import init_factors
    from ..integrity import IntegrityError
    from ..robustness.faults import (
        STORAGE_FAULT_KINDS,
        InjectedCrash,
        ShardCrashPlan,
        SlabFaultSpec,
        inject_slab_fault,
    )
    from ..tensor.store import ShardedTensorStore

    if kinds is None:
        kinds = STORAGE_FAULT_KINDS
    report = SweepReport()
    options = AOADMMOptions(rank=rank,
                            max_outer_iterations=max_iterations)
    for case_index, case in enumerate(cases):
        tensor = case.tensor
        if tensor.nnz == 0:
            continue  # nothing on disk to damage
        report.cases += 1
        init = init_factors(tensor, rank, options.init, seed=case.seed)
        root = Path(tempfile.mkdtemp(prefix="repro-storage-sweep-"))
        try:
            anchor_store = ShardedTensorStore.create(
                tensor, root / "anchor", slab_nnz_target=32)
            anchor = fit_aoadmm(anchor_store, options,
                                initial_factors=[f.copy() for f in init])
            anchor_store.close()
            target_mode = case_index % tensor.nmodes

            for ki, kind in enumerate(kinds):
                for with_source in (True, False):
                    store_dir = root / f"{kind}-{int(with_source)}"
                    store = ShardedTensorStore.create(
                        tensor, store_dir, slab_nnz_target=32)
                    if not with_source:
                        store.close()
                        store = ShardedTensorStore.open(store_dir)
                    spec = SlabFaultSpec(kind, mode=target_mode, index=0,
                                         seed=seed + 31 * ki)
                    inject_slab_fault(store, spec)
                    label = (f"storage[{kind},"
                             f"source={'yes' if with_source else 'no'}]")
                    report.comparisons += 1
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            result = fit_aoadmm(
                                store, options,
                                initial_factors=[f.copy() for f in init])
                    except IntegrityError:
                        # Loud failure — always an acceptable outcome.
                        store.close()
                        continue
                    if not with_source:
                        report.disagreements.append(Disagreement(
                            kind="storage", case=case.spec, backend=label,
                            reference="IntegrityError",
                            detail="fit over a corrupt store with no "
                                   "rebuild source completed instead of "
                                   "failing loudly — silent wrong-answer "
                                   "path",
                            max_abs_diff=float("nan"),
                            replay=replay_command(case.spec)))
                    else:
                        sub = compare_factor_sets(
                            case.spec, "unfaulted", label,
                            anchor.model.factors, result.model.factors,
                            bitwise=True)
                        sub.cases = 0  # already counted above
                        report.merge(sub)
                    store.close()

            # Kill-during-shard: the target must never parse as a store.
            crash_dir = root / "crash"
            plan = ShardCrashPlan(at_slab=2)
            report.comparisons += 1
            try:
                ShardedTensorStore.create(tensor, crash_dir,
                                          slab_nnz_target=32,
                                          fault_hook=plan)
                crashed = not plan.fired
            except InjectedCrash:
                crashed = True
            if not crashed or ShardedTensorStore.is_store(crash_dir):
                report.disagreements.append(Disagreement(
                    kind="storage", case=case.spec,
                    backend="shard-crash[at_slab=2]",
                    reference="torn-write contract",
                    detail="a shard killed mid-write left a directory "
                           "that parses as a store",
                    max_abs_diff=float("nan"),
                    replay=replay_command(case.spec)))
            else:
                store = ShardedTensorStore.create(tensor, crash_dir,
                                                  slab_nnz_target=32)
                retry = fit_aoadmm(store, options,
                                   initial_factors=[f.copy()
                                                    for f in init])
                sub = compare_factor_sets(
                    case.spec, "unfaulted", "reshard-after-crash",
                    anchor.model.factors, retry.model.factors,
                    bitwise=True)
                sub.cases = 0  # already counted above
                report.merge(sub)
                store.close()
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return report


# ----------------------------------------------------------------------
# CLI: fuzz entry point and failure replay
# ----------------------------------------------------------------------

def _parse_int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in raw.split(",") if part)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing",
        description="Cross-backend differential sweeps (fuzz + replay).")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for the strategy generators")
    parser.add_argument("--cases", type=int, default=20,
                        help="number of strategy-generated tensors")
    parser.add_argument("--rank", type=int, default=4)
    parser.add_argument("--threads", type=_parse_int_list, default=(1, 2, 4),
                        help="comma-separated thread counts for tiled CSF "
                             "and blocked ADMM")
    parser.add_argument("--slabs", type=_parse_int_list,
                        default=(32, 100_000),
                        help="comma-separated slab nnz targets")
    parser.add_argument("--executors", default="",
                        help="comma-separated executor names to pin as "
                             "explicit bitwise grid points (e.g. "
                             "'serial,thread')")
    parser.add_argument("--no-admm", action="store_true",
                        help="skip the blocked-vs-unblocked ADMM sweep")
    parser.add_argument("--storage-faults", action="store_true",
                        help="also run the storage-fault sweep (slab "
                             "bit-rot, truncation, kill-during-shard): "
                             "faulted fits must be bit-identical after "
                             "rebuild or fail with IntegrityError")
    parser.add_argument("--replay", metavar="SPEC",
                        help="replay one case from its spec string "
                             "(e.g. 'v1:seed=123:index=7')")
    parser.add_argument("--mode", type=int, default=None,
                        help="with --replay: restrict to one mode")
    parser.add_argument("--backend", default=None,
                        help="with --replay: restrict to backends whose "
                             "name contains this string")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the report as JSON to PATH")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    executors = tuple(x for x in args.executors.split(",") if x)
    backends = mttkrp_backend_specs(threads=args.threads,
                                    slab_targets=args.slabs,
                                    executors=executors)
    if args.replay:
        case = case_from_spec(args.replay)
        if args.backend:
            backends = [b for b in backends if args.backend in b.name]
            if not backends:
                print(f"no backend matches {args.backend!r}",
                      file=sys.stderr)
                return 2
        modes = None if args.mode is None else (args.mode,)
        print(f"replaying {case.name}: {case.description}")
        report = run_mttkrp_sweep([case], rank=args.rank,
                                  backends=backends, modes=modes)
        if not args.no_admm:
            report.merge(run_admm_sweep([case], rank=args.rank,
                                        threads=args.threads))
    else:
        cases = tensor_cases(args.cases, args.seed)
        report = run_mttkrp_sweep(cases, rank=args.rank, backends=backends)
        if not args.no_admm:
            report.merge(run_admm_sweep(cases, rank=args.rank,
                                        threads=args.threads))
        report.merge(run_prox_sweep(args.seed))
        if args.storage_faults:
            # Whole fits per fault kind are expensive — a handful of
            # cases is plenty to prove the contract each night.
            report.merge(run_storage_fault_sweep(cases[:6], rank=args.rank,
                                                 seed=args.seed))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2)
    print(report.summary())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
