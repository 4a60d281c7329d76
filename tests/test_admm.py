"""ADMM inner-solver tests: correctness against closed forms and oracles."""

import numpy as np
import pytest
import scipy.optimize

from repro.admm import (
    AdmmState,
    FixedRho,
    NormalizedTraceRho,
    TraceRho,
    admm_update,
    blocked_admm_update,
    make_rho_policy,
    relative_residuals,
)
from repro.admm.residuals import block_relative_residual
from repro.constraints import L1, NonNegative, Unconstrained
from repro.constraints.base import Constraint
from repro.constraints.registry import available_constraints, make_constraint
from repro.testing.oracles import per_block_admm_reference

ROW_SEPARABLE = [name for name in available_constraints()
                 if make_constraint(name).row_separable]


def make_problem(rng, rows=40, rank=5, cols=30):
    """A least-squares mode subproblem min ||X - H W^T|| with known W, X."""
    w = rng.standard_normal((cols, rank))
    h_true = np.abs(rng.standard_normal((rows, rank)))
    x = h_true @ w.T + 0.01 * rng.standard_normal((rows, cols))
    gram = w.T @ w
    mttkrp = x @ w
    return mttkrp, gram, x, w


class TestRhoPolicies:
    def test_trace_rho(self):
        g = np.diag([1.0, 2.0, 3.0])
        assert TraceRho().rho(g) == pytest.approx(2.0)

    def test_trace_rho_floor(self):
        assert TraceRho(floor=1e-3).rho(np.zeros((3, 3))) == 1e-3

    def test_fixed_rho(self):
        assert FixedRho(2.5).rho(np.eye(3)) == 2.5
        with pytest.raises(ValueError):
            FixedRho(0.0)

    def test_scaled_trace(self):
        g = np.eye(4)
        assert NormalizedTraceRho(scale=3.0).rho(g) == pytest.approx(3.0)

    def test_make_policy(self):
        assert isinstance(make_rho_policy("trace"), TraceRho)
        assert isinstance(make_rho_policy(1.5), FixedRho)
        policy = TraceRho()
        assert make_rho_policy(policy) is policy
        with pytest.raises(ValueError):
            make_rho_policy("bogus")


class TestResiduals:
    def test_zero_when_converged(self, rng):
        h = rng.standard_normal((5, 3))
        r, s = relative_residuals(h, h, h, np.ones_like(h))
        assert r == 0.0 and s == 0.0

    def test_no_division_by_zero(self):
        z = np.zeros((3, 2))
        r, s = relative_residuals(z, z + 1.0, z, z)
        assert np.isfinite(r) and np.isfinite(s)

    @pytest.mark.parametrize("rank, block_rows", [
        (3, 1), (7, 10), (32, 256), (32, 257), (16, 600)])
    def test_block_residuals_match_per_block(self, rng, rank, block_rows):
        """Bit for bit, for blocks of one row up to wide blocks."""
        rows = 3 * block_rows + max(block_rows // 2, 1)
        h, aux, h_prev, u = (rng.standard_normal((rows, rank))
                             for _ in range(4))
        u[:block_rows] = 0.0  # a floored denominator
        r = block_relative_residual(h - aux, h, block_rows)
        s = block_relative_residual(h - h_prev, u, block_rows)
        want = np.array([
            relative_residuals(h[i:i + block_rows], aux[i:i + block_rows],
                               h_prev[i:i + block_rows],
                               u[i:i + block_rows])
            for i in range(0, rows, block_rows)])
        assert r.tobytes() == want[:, 0].tobytes()
        assert s.tobytes() == want[:, 1].tobytes()


class TestFullAdmm:
    def test_unconstrained_reaches_least_squares(self, rng):
        mttkrp, gram, x, w = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, Unconstrained(),
                    tolerance=1e-12, max_iterations=300)
        exact = np.linalg.solve(gram, mttkrp.T).T
        np.testing.assert_allclose(state.primal, exact, atol=1e-4)

    def test_nonneg_matches_nnls(self, rng):
        mttkrp, gram, x, w = make_problem(rng, rows=12, rank=4, cols=25)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, NonNegative(),
                    tolerance=1e-10, max_iterations=500)
        for i in range(12):
            expected, _ = scipy.optimize.nnls(w, x[i])
            np.testing.assert_allclose(state.primal[i], expected, atol=1e-3)

    def test_l1_stationarity(self, rng):
        """KKT: for nonzero entries, gradient + weight*sign == 0."""
        weight = 0.5
        mttkrp, gram, _, _ = make_problem(rng, rows=15, rank=4)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, L1(weight),
                    tolerance=1e-12, max_iterations=800)
        grad = state.primal @ gram - mttkrp
        h = state.primal
        nz = np.abs(h) > 1e-6
        np.testing.assert_allclose(grad[nz], -weight * np.sign(h[nz]),
                                   atol=2e-2)
        # Subgradient condition where h == 0.
        assert (np.abs(grad[~nz]) <= weight + 2e-2).all()

    def test_report_fields(self, rng):
        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = admm_update(state, mttkrp, gram, NonNegative())
        assert report.iterations >= 1
        assert report.rho == pytest.approx(np.trace(gram) / gram.shape[0])
        assert report.primal_residual >= 0.0

    def test_warm_start_converges_quickly(self, rng):
        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(state, mttkrp, gram, NonNegative(),
                    tolerance=1e-10, max_iterations=400)
        warm = admm_update(state, mttkrp, gram, NonNegative(),
                           tolerance=1e-10, max_iterations=400)
        assert warm.iterations <= 3

    def test_shape_mismatch_rejected(self, rng):
        state = AdmmState.from_factor(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            admm_update(state, np.zeros((5, 3)), np.eye(3), NonNegative())


class TestBlockedAdmm:
    def test_matches_full_admm_solution(self, rng):
        """Blocked and full ADMM share fixed points (row-separable prox)."""
        mttkrp, gram, x, w = make_problem(rng, rows=60)
        full = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(full, mttkrp, gram, NonNegative(),
                    tolerance=1e-12, max_iterations=600)
        blocked = AdmmState.from_factor(np.zeros_like(mttkrp))
        blocked_admm_update(blocked, mttkrp, gram, NonNegative(),
                            tolerance=1e-12, max_iterations=600,
                            block_size=13)
        np.testing.assert_allclose(blocked.primal, full.primal, atol=1e-4)

    def test_single_block_equals_unblocked(self, rng):
        mttkrp, gram, _, _ = make_problem(rng, rows=20)
        a = AdmmState.from_factor(np.zeros_like(mttkrp))
        b = a.copy()
        rep_a = admm_update(a, mttkrp, gram, NonNegative(),
                            tolerance=1e-8, max_iterations=50)
        rep_b = blocked_admm_update(b, mttkrp, gram, NonNegative(),
                                    tolerance=1e-8, max_iterations=50,
                                    block_size=10**9)
        np.testing.assert_allclose(a.primal, b.primal, atol=1e-12)
        assert rep_b.block_iterations == (rep_a.iterations,)

    def test_per_block_iteration_counts_vary(self, rng):
        """Blocks with stronger signal may iterate differently."""
        mttkrp, gram, _, _ = make_problem(rng, rows=100)
        mttkrp[:10] *= 50.0  # high-signal rows
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = blocked_admm_update(state, mttkrp, gram, NonNegative(),
                                     block_size=10, tolerance=1e-8,
                                     max_iterations=100)
        assert len(report.block_iterations) == 10
        assert len(set(report.block_iterations)) > 1

    def test_rejects_non_row_separable(self, rng):
        class ColumnCoupled(Constraint):
            row_separable = False
            name = "coupled"

            def prox(self, matrix, step):
                return matrix

            def penalty(self, matrix):
                return 0.0

        mttkrp, gram, _, _ = make_problem(rng)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        with pytest.raises(ValueError, match="not row separable"):
            blocked_admm_update(state, mttkrp, gram, ColumnCoupled())

    def test_report_accounting(self, rng):
        mttkrp, gram, _, _ = make_problem(rng, rows=23)
        state = AdmmState.from_factor(np.zeros_like(mttkrp))
        report = blocked_admm_update(state, mttkrp, gram, NonNegative(),
                                     block_size=10)
        assert report.block_rows == (10, 10, 3)
        assert report.total_row_iterations == sum(
            r * i for r, i in zip(report.block_rows,
                                  report.block_iterations))
        assert report.iterations == max(report.block_iterations)


def solve_both(mttkrp, gram, name, primal, dual=None, **kwargs):
    """Blocked solve and per-block reference from one start; both states."""
    batched = AdmmState(primal, dual)
    reference = batched.copy()
    got = blocked_admm_update(batched, mttkrp, gram, make_constraint(name),
                              **kwargs)
    want = per_block_admm_reference(reference, mttkrp, gram,
                                    make_constraint(name), **kwargs)
    return got, want, batched, reference


def assert_bitwise(got, want, batched, reference):
    assert batched.primal.tobytes() == reference.primal.tobytes()
    assert batched.dual.tobytes() == reference.dual.tobytes()
    assert got == want


class TestBlockedMatchesPerBlockReference:
    """The batched active-set solver against the one-block-at-a-time loop.

    Equality is byte for byte on primal and dual, and the whole report
    (per-block iterations included) must be equal.
    """

    @pytest.mark.parametrize("rank", [1, 7, 32])
    @pytest.mark.parametrize("name", ROW_SEPARABLE)
    def test_every_constraint_and_shape(self, rng, name, rank):
        for rows, block_size in [(0, 10), (1, 10), (1, 1), (23, 10),
                                 (23, 1), (23, 23), (23, 10**9), (60, 13)]:
            mttkrp, gram, _, _ = make_problem(rng, rows=rows, rank=rank,
                                              cols=rank + 6)
            mttkrp[:rows // 3] *= 40.0
            primal = np.abs(rng.standard_normal((rows, rank)))
            dual = 0.1 * rng.standard_normal((rows, rank))
            for cap in (3, 60):
                result = solve_both(mttkrp, gram, name, primal, dual,
                                    tolerance=1e-6, max_iterations=cap,
                                    block_size=block_size)
                assert_bitwise(*result)

    @staticmethod
    def solved(rng, rows, rank):
        """A problem and its (tightly converged) unblocked solution."""
        mttkrp, gram, _, _ = make_problem(rng, rows=rows, rank=rank)
        start = AdmmState.from_factor(np.zeros_like(mttkrp))
        admm_update(start, mttkrp, gram, NonNegative(), tolerance=1e-14,
                    max_iterations=2000)
        return mttkrp, gram, start.primal.copy(), start.dual.copy()

    def test_cap_hit_by_some_blocks_only(self, rng):
        mttkrp, gram, primal, dual = self.solved(rng, rows=95, rank=6)
        primal[:20] += 5.0
        got, want, *states = solve_both(
            mttkrp, gram, "nonneg", primal, dual, tolerance=1e-8,
            max_iterations=12, block_size=10)
        assert_bitwise(got, want, *states)
        assert got.block_iterations[:2] == (12, 12)
        assert max(got.block_iterations[2:]) < 12
        assert not got.converged

    @pytest.mark.parametrize("tail_leaves", ["first", "last"])
    def test_short_last_block_leaves_first_or_last(self, rng, tail_leaves):
        """Blocks (10, 10, 10, 5), each started its own distance from the
        solution: the short block exits before or after every full one,
        and the full ones exit at different steps."""
        mttkrp, gram, primal, dual = self.solved(rng, rows=35, rank=5)
        shifts = ((5.0, 0.5, 2.0, 0.0) if tail_leaves == "first"
                  else (0.01, 0.0, 0.1, 5.0))
        for block, shift in enumerate(shifts):
            primal[10 * block:10 * block + 10] += shift
        got, want, *states = solve_both(
            mttkrp, gram, "nonneg", primal, dual, tolerance=1e-8,
            max_iterations=400, block_size=10)
        assert_bitwise(got, want, *states)
        tail, full = got.block_iterations[-1], got.block_iterations[:-1]
        assert got.block_rows == (10, 10, 10, 5)
        if tail_leaves == "first":
            assert tail < min(full)
        else:
            assert tail > max(full)
        assert len(set(full)) == 3
        assert got.converged

    @pytest.mark.parametrize("layout", ["fortran", "strided", "float32"])
    def test_mttkrp_layouts(self, rng, layout):
        mttkrp, gram, _, _ = make_problem(rng, rows=47, rank=6)
        mttkrp[:9] *= 30.0
        if layout == "fortran":
            mttkrp = np.asfortranarray(mttkrp)
        elif layout == "strided":
            wide = np.zeros((47, 12))
            wide[:, ::2] = mttkrp
            mttkrp = wide[:, ::2]
        else:
            mttkrp = mttkrp.astype(np.float32)
        result = solve_both(mttkrp, gram, "nonneg",
                            np.abs(rng.standard_normal((47, 6))),
                            tolerance=1e-7, max_iterations=80, block_size=10)
        assert_bitwise(*result)

    @pytest.mark.parametrize("block_size", [256, 257, 300])
    def test_blocks_wider_than_one_einsum_pass(self, rng, block_size):
        """Wide blocks (256 to 300 rows of 32 columns) and their short
        last blocks."""
        mttkrp, gram, _, _ = make_problem(rng, rows=700, rank=32, cols=40)
        mttkrp[:100] *= 30.0
        for name in ("nonneg", "l1"):
            result = solve_both(mttkrp, gram, name, np.zeros_like(mttkrp),
                                tolerance=1e-6, max_iterations=40,
                                block_size=block_size)
            assert_bitwise(*result)


class TestAdmmState:
    def test_from_factor_zero_dual(self):
        state = AdmmState.from_factor(np.ones((4, 2)))
        np.testing.assert_array_equal(state.dual, 0.0)
        assert state.rows == 4 and state.rank == 2

    def test_copy_is_deep(self):
        state = AdmmState.from_factor(np.ones((2, 2)))
        clone = state.copy()
        clone.primal[0, 0] = 99.0
        assert state.primal[0, 0] == 1.0

    def test_mismatched_dual_rejected(self):
        with pytest.raises(ValueError):
            AdmmState(np.ones((3, 2)), np.ones((2, 2)))
