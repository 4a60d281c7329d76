"""Integration tests for the AO-ADMM driver and the baselines."""

import numpy as np
import pytest

from repro import (
    AOADMMOptions,
    CPModel,
    factor_match_score,
    fit_als,
    fit_aoadmm,
)
from repro.baselines import fit_mu, fit_pgd
from repro.constraints import L1, NonNegativeL1, RowSimplex
from repro.tensor import COOTensor, noisy_lowrank_coo
from repro.tensor.dense import dense_from_factors
from repro.tensor.random import lowrank_coo, random_factors


@pytest.fixture(scope="module")
def planted_dense():
    """A fully observed exact low-rank non-negative tensor."""
    factors = random_factors((14, 11, 9), 3, seed=13)
    dense = dense_from_factors(factors)
    return COOTensor.from_dense(dense), factors


@pytest.fixture(scope="module")
def planted_sparse():
    tensor, truth = noisy_lowrank_coo((40, 30, 25), rank=4, nnz=6000,
                                      noise=0.05, seed=21)
    return tensor, truth


class TestRecovery:
    def test_base_recovers_planted_structure(self, planted_dense):
        tensor, truth = planted_dense
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, constraints="nonneg", blocked=False, seed=3,
            max_outer_iterations=300, outer_tolerance=1e-12))
        assert res.relative_error < 1e-3
        assert factor_match_score(res.model, truth) > 0.99

    def test_blocked_recovers_planted_structure(self, planted_dense):
        tensor, truth = planted_dense
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, constraints="nonneg", blocked=True, block_size=4,
            seed=3, max_outer_iterations=300, outer_tolerance=1e-12))
        assert res.relative_error < 1e-3
        assert factor_match_score(res.model, truth) > 0.99

    def test_als_recovers(self, planted_dense):
        tensor, truth = planted_dense
        res = fit_als(tensor, AOADMMOptions(
            rank=3, seed=3, max_outer_iterations=300,
            outer_tolerance=1e-12))
        assert res.relative_error < 1e-3


class TestMonotonicity:
    def test_error_is_nonincreasing_enough(self, planted_sparse):
        """AO guarantees a monotone objective; the inexact inner solves can
        wiggle the relative error by tiny amounts only."""
        tensor, _ = planted_sparse
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=4, constraints="nonneg", seed=5, max_outer_iterations=30))
        errs = res.trace.errors()
        assert (np.diff(errs) < 1e-3).all()

    def test_constraints_hold_at_solution(self, planted_sparse):
        tensor, _ = planted_sparse
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=4, constraints="nonneg", seed=5, max_outer_iterations=15))
        for factor in res.model.factors:
            assert (factor >= 0).all()

    def test_simplex_constraint_holds(self, planted_sparse):
        tensor, _ = planted_sparse
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=4, constraints=["nonneg", RowSimplex(), "nonneg"],
            seed=5, max_outer_iterations=10))
        sums = res.model.factors[1].sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)


class TestSparsityInducingRuns:
    def test_l1_produces_sparser_factors(self, planted_sparse):
        tensor, _ = planted_sparse
        base = fit_aoadmm(tensor, AOADMMOptions(
            rank=4, constraints="nonneg", seed=5, max_outer_iterations=20))
        regd = fit_aoadmm(tensor, AOADMMOptions(
            rank=4, constraints=NonNegativeL1(2.0), seed=5,
            max_outer_iterations=20))
        dens_base = np.mean([base.model.factor_density(m) for m in range(3)])
        dens_reg = np.mean([regd.model.factor_density(m) for m in range(3)])
        assert dens_reg < dens_base

    @pytest.mark.parametrize("policy", ["csr", "hybrid", "auto"])
    def test_sparse_repr_policies_agree_with_dense(self, planted_sparse,
                                                   policy):
        tensor, _ = planted_sparse
        common = dict(rank=4, constraints=NonNegativeL1(1.0), seed=5,
                      max_outer_iterations=12, factor_zero_tol=0.0)
        dense = fit_aoadmm(tensor, AOADMMOptions(
            repr_policy="dense", **common))
        other = fit_aoadmm(tensor, AOADMMOptions(
            repr_policy=policy, sparsity_threshold=0.9, **common))
        # Identical math, different storage: traces must agree closely.
        np.testing.assert_allclose(other.trace.errors(),
                                   dense.trace.errors(), rtol=1e-8)


class TestDriverMechanics:
    def test_deterministic_given_seed(self, planted_sparse):
        tensor, _ = planted_sparse
        opts = AOADMMOptions(rank=3, constraints="nonneg", seed=11,
                             max_outer_iterations=8)
        a = fit_aoadmm(tensor, opts)
        b = fit_aoadmm(tensor, opts)
        for fa, fb in zip(a.model.factors, b.model.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_initial_factors_override(self, planted_sparse):
        tensor, _ = planted_sparse
        init = [np.full((s, 3), 0.5) for s in tensor.shape]
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, max_outer_iterations=3), initial_factors=init)
        assert res.iterations == 3
        # The inputs must not be mutated.
        for f in init:
            np.testing.assert_array_equal(f, 0.5)

    def test_stop_reason_tolerance(self, planted_dense):
        tensor, _ = planted_dense
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, constraints="nonneg", seed=3,
            outer_tolerance=1e-3, max_outer_iterations=200))
        assert res.stop_reason == "tolerance"
        assert res.converged

    def test_trace_bookkeeping(self, planted_sparse):
        tensor, _ = planted_sparse
        res = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, seed=1, max_outer_iterations=5,
            track_block_reports=True))
        assert len(res.trace) == res.iterations
        rec = res.trace.records[0]
        assert rec.mttkrp_seconds > 0
        assert rec.admm_seconds > 0
        assert len(rec.inner_iterations) == 3
        assert rec.block_reports is not None

    def test_rejects_empty_tensor(self):
        empty = COOTensor(np.empty((3, 0), dtype=np.int64), np.empty(0),
                          (3, 3, 3))
        with pytest.raises(ValueError):
            fit_aoadmm(empty)

    def test_blocked_flag_rejects_non_separable(self, planted_sparse):
        from repro.constraints.base import Constraint

        class Coupled(Constraint):
            row_separable = False
            name = "coupled"

            def prox(self, m, s):
                return m

            def penalty(self, m):
                return 0.0

        tensor, _ = planted_sparse
        with pytest.raises(ValueError, match="row separable"):
            fit_aoadmm(tensor, AOADMMOptions(
                rank=3, constraints=Coupled(), blocked=True))


class TestBaselines:
    def test_mu_decreases_error(self, planted_sparse):
        tensor, _ = planted_sparse
        res = fit_mu(tensor, AOADMMOptions(rank=4, seed=7,
                                           max_outer_iterations=25))
        errs = res.trace.errors()
        assert errs[-1] < errs[0]
        for f in res.model.factors:
            assert (f >= 0).all()

    def test_mu_rejects_negative_tensor(self):
        t = COOTensor.from_arrays([np.array([0]), np.array([0])],
                                  np.array([-1.0]), shape=(2, 2))
        with pytest.raises(ValueError):
            fit_mu(t)

    def test_pgd_decreases_error(self, planted_sparse):
        tensor, _ = planted_sparse
        res = fit_pgd(tensor, AOADMMOptions(rank=4, seed=7,
                                            max_outer_iterations=25))
        errs = res.trace.errors()
        assert errs[-1] < errs[0]
        for f in res.model.factors:
            assert (f >= 0).all()

    def test_aoadmm_beats_baselines_per_iteration(self, planted_dense):
        """The paper's premise: AO-ADMM converges faster per iteration."""
        tensor, _ = planted_dense
        iters = 25
        ao = fit_aoadmm(tensor, AOADMMOptions(
            rank=3, constraints="nonneg", seed=9,
            max_outer_iterations=iters, outer_tolerance=0.0))
        mu = fit_mu(tensor, AOADMMOptions(
            rank=3, seed=9, max_outer_iterations=iters, outer_tolerance=0.0))
        assert ao.relative_error < mu.relative_error


class TestEveryMethodBuildsTheOptionsEngine:
    """AO-ADMM, ALS, MU and PGD build their engine from the same options
    (``make_fit_engine``): executor, threads, slab target and byte
    budget reach it, and the factors do not depend on the thread
    count."""

    @staticmethod
    def fit(monkeypatch, tensor, method, **kwargs):
        import repro
        import repro.core.aoadmm as aoadmm

        engines = []
        build = aoadmm.make_engine
        monkeypatch.setattr(aoadmm, "make_engine",
                            lambda *a, **k: engines.append(build(*a, **k))
                            or engines[-1])
        result = repro.fit(tensor, method=method, rank=4, seed=5,
                           max_outer_iterations=4, outer_tolerance=0.0,
                           **kwargs)
        assert len(engines) == 1
        return result, engines[0]

    @pytest.mark.parametrize("method", ["aoadmm", "als", "mu", "pgd"])
    def test_call_log_records_the_options_executor(self, monkeypatch,
                                                   planted_sparse, method):
        tensor, _ = planted_sparse
        for executor in ("serial", "thread"):
            _, engine = self.fit(monkeypatch, tensor, method,
                                 executor=executor, threads=2,
                                 slab_nnz_target=1024)
            assert engine.threads == 2
            assert engine.slab_nnz_target == 1024
            assert engine.call_log
            assert {c.executor for c in engine.call_log} == {executor}

    @pytest.mark.parametrize("method", ["aoadmm", "als", "mu", "pgd"])
    def test_factors_bitwise_equal_at_one_and_two_threads(
            self, monkeypatch, planted_sparse, method):
        tensor, _ = planted_sparse
        one, _ = self.fit(monkeypatch, tensor, method, executor="thread",
                          threads=1, slab_nnz_target=1024)
        two, engine = self.fit(monkeypatch, tensor, method,
                               executor="thread", threads=2,
                               slab_nnz_target=1024)
        assert max(c.workers for c in engine.call_log) == 2
        for a, b in zip(one.model.factors, two.model.factors):
            assert a.tobytes() == b.tobytes()
