"""Differential correctness harness wiring.

Tier-1 runs the acceptance sweep (every MTTKRP backend × threads × slab
targets × rank counts on 21 strategy-generated tensors, blocked vs
unblocked ADMM with KKT certificates, the prox oracle) plus the
negative controls proving the harness *catches* injected defects and
emits working seed-replay strings.  The ``fuzz``-marked tests at the
bottom are the extended nightly sweep (rotating seed via
``REPRO_FUZZ_SEED``); they are deselected from tier-1 by the ``-m "not
fuzz and not slow"`` default in ``pyproject.toml``.
"""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.admm.solver import admm_update
from repro.admm.state import AdmmState
from repro.constraints.base import Constraint
from repro.constraints.registry import make_constraint
from repro.core.aoadmm import fit_aoadmm
from repro.core.cpd import CPModel
from repro.core.options import AOADMMOptions
from repro.kernels.mttkrp_coo import mttkrp_coo, mttkrp_coo_reference
from repro.linalg.grams import hadamard_gram_excluding
from repro.robustness.faults import FaultInjector, FaultSpec
from repro.testing import (
    FLAVORS,
    BackendSpec,
    case_from_spec,
    check_prox,
    compare_factor_sets,
    compare_fits,
    factors_for,
    kkt_certificate,
    make_case,
    mttkrp_backend_specs,
    mttkrp_oracle,
    parse_spec,
    relative_error_oracle,
    run_admm_sweep,
    run_mttkrp_sweep,
    run_prox_sweep,
    tensor_cases,
)
from repro.testing import differential as differential_cli

#: Fixed tier-1 sweep seed; the nightly job rotates REPRO_FUZZ_SEED instead.
TIER1_SEED = 0xD1FF


class TestStrategies:
    def test_spec_round_trip_rebuilds_identical_case(self):
        for case in tensor_cases(8, seed=37):
            seed, index = parse_spec(case.spec)
            assert (seed, index) == (case.seed, case.index)
            replayed = case_from_spec(case.spec)
            assert replayed.flavor == case.flavor
            assert replayed.tensor == case.tensor

    def test_malformed_specs_rejected(self):
        for bad in ("", "v0:seed=1:index=2", "v1:seed=1",
                    "v1:seed=x:index=2", "v1:seed=1:rank=2"):
            with pytest.raises(ValueError):
                parse_spec(bad)

    def test_flavor_rotation_covers_every_flavor(self):
        flavors = {c.flavor for c in tensor_cases(len(FLAVORS), seed=5)}
        assert flavors == set(FLAVORS)

    def test_adversarial_structure_is_real(self):
        empty = make_case(11, 0, flavor="empty-slices")
        assert any(
            len(empty.tensor.nonempty_slices(m)) < empty.tensor.shape[m]
            for m in range(empty.tensor.nmodes))
        narrow = make_case(11, 0, flavor="one-wide")
        assert 1 in narrow.tensor.shape
        deep = make_case(11, 0, flavor="many-modes")
        assert deep.tensor.nmodes >= 4

    def test_batches_cover_three_and_four_mode_tensors(self):
        nmodes = {c.tensor.nmodes for c in tensor_cases(21, seed=TIER1_SEED)}
        assert {3, 4} <= nmodes

    def test_factors_for_is_deterministic_with_exact_zeros(self):
        case = make_case(23, 1)
        a = factors_for(case, rank=4)
        b = factors_for(case, rank=4)
        for fa, fb, extent in zip(a, b, case.tensor.shape):
            assert fa.shape == (extent, 4)
            np.testing.assert_array_equal(fa, fb)
        assert any(np.count_nonzero(f == 0.0) for f in a)


class TestOracles:
    def test_mttkrp_oracle_matches_triple_loop_reference(self):
        case = make_case(3, 2)
        factors = factors_for(case, rank=3)
        for mode in range(case.tensor.nmodes):
            np.testing.assert_allclose(
                mttkrp_oracle(case.tensor, factors, mode),
                mttkrp_coo_reference(case.tensor, factors, mode),
                atol=1e-10)

    def test_relative_error_oracle_certifies_norm_expansion(self):
        case = make_case(3, 6)  # lowrank flavor
        factors = factors_for(case, rank=3, leaf_sparsity=0.0)
        oracle = relative_error_oracle(case.tensor, factors)
        identity = CPModel([f.copy() for f in factors]).relative_error(
            case.tensor)
        assert oracle == pytest.approx(identity, abs=1e-9)

    def test_kkt_certificate_accepts_converged_rejects_perturbed(self):
        case = make_case(17, 0)
        factors = factors_for(case, rank=3, leaf_sparsity=0.0)
        kmat = mttkrp_oracle(case.tensor, factors, 0)
        gram = hadamard_gram_excluding(factors, 0)
        constraint = make_constraint("nonneg")
        state = AdmmState.from_factor(np.abs(factors[0]) + 0.1)
        report = admm_update(state, kmat, gram, constraint,
                             tolerance=1e-12, max_iterations=3000)
        assert report.converged
        cert = kkt_certificate(state, kmat, gram, constraint, rho=report.rho)
        assert cert.satisfied(1e-4), cert
        perturbed = AdmmState.from_snapshot(state.primal + 0.25,
                                            state.dual.copy())
        bad = kkt_certificate(perturbed, kmat, gram, constraint,
                              rho=report.rho)
        assert not bad.satisfied(1e-4)

    def test_prox_oracle_flags_a_broken_prox(self, rng):
        class BrokenNonNeg(Constraint):
            name = "broken-nonneg"

            def prox(self, matrix, step):
                # Feasible but not the projection: inflate everything.
                return np.abs(matrix) + 1.0

            def penalty(self, matrix):
                return 0.0 if np.all(matrix >= 0) else float("inf")

        matrix = rng.standard_normal((6, 4))
        assert check_prox(make_constraint("nonneg"), matrix, 0.7,
                          np.random.default_rng(1)).ok(1e-6)
        assert not check_prox(BrokenNonNeg(), matrix, 0.7,
                              np.random.default_rng(1)).ok(1e-6)


class TestMTTKRPSweep:
    def test_acceptance_grid_every_backend_agrees(self):
        """The acceptance sweep: ≥20 tensors × full backend grid.

        coo, untiled csf, tiled csf over threads {1,2,4} × 2 slab
        targets (bit-identical family), the out-of-core sharded stream
        at two byte budgets (same bitwise family), and sparse-factor
        csr and csr-h — all against the dense oracle.
        """
        cases = tensor_cases(21, seed=TIER1_SEED)
        backends = mttkrp_backend_specs(threads=(1, 2, 4),
                                        slab_targets=(32, 100_000))
        names = {b.name for b in backends}
        assert {"coo", "csf", "sparse-csr", "sparse-csr-h",
                "sharded[b=None]", "sharded[b=4096]"} <= names
        assert sum(n.startswith("csf-tiled") for n in names) == 6
        report = run_mttkrp_sweep(cases, rank=4, backends=backends)
        report.raise_for_failures()
        assert report.cases >= 20
        assert report.comparisons > 1000

    def test_corrupted_backend_caught_with_working_replay(self):
        def corrupt_factory(tensor):
            def kernel(factors, mode):
                out = mttkrp_coo(tensor, factors, mode)
                out.flat[0] += 1e-3  # a small silent kernel bug
                return out

            return kernel

        backends = [
            BackendSpec("coo", "coo",
                        lambda t: lambda f, m: mttkrp_coo(t, f, m)),
            BackendSpec("corrupt", "corrupt", corrupt_factory),
        ]
        cases = tensor_cases(2, seed=9)
        report = run_mttkrp_sweep(cases, rank=3, backends=backends)
        assert not report.ok
        failure = report.disagreements[0]
        assert failure.backend == "corrupt"
        assert failure.replay and "python -m repro.testing" in failure.replay
        # The embedded spec rebuilds the exact failing tensor.
        assert case_from_spec(failure.case).tensor == cases[0].tensor


class TestADMMSweep:
    def test_blocked_vs_unblocked_with_kkt_certificates(self):
        report = run_admm_sweep(tensor_cases(12, seed=TIER1_SEED))
        report.raise_for_failures()
        assert report.comparisons >= 12

    def test_prox_sweep_all_registered_constraints(self):
        run_prox_sweep(seed=11).raise_for_failures()


class TestFaultDetection:
    """Acceptance: an injected kernel perturbation must be *caught*."""

    def test_injected_mttkrp_fault_caught_with_working_replay(self, capsys):
        case = make_case(99, 6)  # lowrank: a meaningful fit target
        base = AOADMMOptions(rank=3, max_outer_iterations=4,
                             outer_tolerance=0.0, guard_policy="off",
                             seed=case.seed)
        perturbed = replace(base, fault_injector=FaultInjector(
            [FaultSpec("mttkrp_nan", iteration=2, mode=0)]))
        report = compare_fits(case, base, perturbed,
                              label_a="clean", label_b="perturbed")
        assert not report.ok
        failure = report.disagreements[0]
        assert "replay" not in failure.detail  # detail is the diff itself
        assert failure.replay.startswith(
            "PYTHONPATH=src python -m repro.testing --replay")
        # The seed-replay string *works*: its spec rebuilds the exact
        # tensor, and executing the replay command path runs the sweep.
        assert case_from_spec(failure.case).tensor == case.tensor
        exit_code = differential_cli.main(
            ["--replay", failure.case, "--no-admm"])
        out = capsys.readouterr().out
        assert exit_code == 0 and "PASS" in out  # kernels are clean

    def test_unperturbed_fit_pair_is_bit_identical(self):
        case = make_case(99, 6)
        options = AOADMMOptions(rank=3, max_outer_iterations=3,
                                outer_tolerance=0.0, seed=case.seed)
        compare_fits(case, options, options).raise_for_failures()


class TestCheckpointResumeDifferential:
    def test_resume_bitwise_matches_uninterrupted_across_sweep_config(
            self, tmp_path):
        """Resumed blocked AO-ADMM == uninterrupted run, bit for bit.

        The uninterrupted run uses 2 threads and the resumed leg 1
        thread: the thread count is contractually bit-invisible, so the
        checkpoint boundary must not introduce any divergence either.
        """
        case = make_case(5, 6)  # lowrank flavor
        path = tmp_path / "ck.npz"
        full = AOADMMOptions(rank=3, constraints="nonneg", blocked=True,
                             max_outer_iterations=6, outer_tolerance=0.0,
                             seed=11, threads=2, block_size=3)
        uninterrupted = fit_aoadmm(case.tensor, full)

        interrupted = replace(full, max_outer_iterations=3,
                              checkpoint_every=3, checkpoint_path=path)
        fit_aoadmm(case.tensor, interrupted)
        resumed = fit_aoadmm(case.tensor, replace(full, threads=1),
                             resume_from=path)

        report = compare_factor_sets(
            case.spec, "uninterrupted[t=2]", "resumed[t=1]",
            uninterrupted.model.factors, resumed.model.factors,
            bitwise=True)
        report.raise_for_failures()
        assert resumed.stop_reason == uninterrupted.stop_reason
        np.testing.assert_array_equal(resumed.trace.errors(),
                                      uninterrupted.trace.errors())


# ----------------------------------------------------------------------
# Extended sweeps: nightly fuzz tier (deselected from tier-1 by marker)
# ----------------------------------------------------------------------

def _fuzz_seed() -> int:
    return int(os.environ.get("REPRO_FUZZ_SEED", "0"))


@pytest.mark.fuzz
def test_fuzz_mttkrp_sweep_rotating_seed():
    seed = _fuzz_seed()
    report = run_mttkrp_sweep(tensor_cases(40, seed=seed), rank=5)
    report.raise_for_failures()


@pytest.mark.fuzz
def test_fuzz_admm_and_prox_sweeps_rotating_seed():
    seed = _fuzz_seed()
    report = run_admm_sweep(tensor_cases(24, seed=seed + 1))
    report.merge(run_prox_sweep(seed=seed + 2))
    report.raise_for_failures()


@pytest.mark.fuzz
def test_fuzz_fit_pair_determinism_rotating_seed():
    seed = _fuzz_seed()
    for index in range(4):
        case = make_case(seed + 3, index)
        options = AOADMMOptions(rank=3, max_outer_iterations=3,
                                outer_tolerance=0.0, seed=case.seed)
        compare_fits(case, options, options).raise_for_failures()
