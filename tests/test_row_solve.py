"""The row-independent ADMM solve: bit identity, accuracy, fallback.

Every compiled ISA variant of ``row_solve.c`` must be byte-equal
(``tobytes()``) to the NumPy replay
:func:`repro.kernels.row_solve.numpy_row_solve` on every column tail,
row tail, signed zero and non-finite input; a row's bits must not depend
on the rows sharing the call; and the solve must be as accurate as
LAPACK's ``potrs`` at the conditioning the ADMM sees.  Whole fits give
byte-identical factors with the kernel and with the replay.
"""

import warnings

import numpy as np
import pytest

import repro
from repro.admm import (AdmmState, FixedRho, TraceRho, admm_update,
                        blocked_admm_update)
from repro.admm.residuals import relative_residuals
from repro.constraints.registry import available_constraints, make_constraint
from repro.datasets import load_dataset
from repro.kernels import native, row_solve
from repro.kernels.row_solve import numpy_row_solve
from repro.linalg import CholeskyFactor
from repro.tensor import random_coo
from repro.testing.oracles import kkt_certificate, per_block_admm_reference

RANKS = tuple(range(1, 10)) + (15, 16, 17, 31, 32, 33, 50, 64)
ROWS = (0, 1, 2, 3, 4, 5, 7, 9)


@pytest.fixture(scope="module")
def solvers():
    """Every compiled variant this CPU runs, without the self-check."""
    try:
        return row_solve.load_solvers()
    except native.NativeUnavailable as exc:
        pytest.skip(f"native row solve unavailable: {exc}")


@pytest.fixture
def numpy_backend(monkeypatch):
    """Serve every ``solve_rows`` call from the NumPy replay."""
    monkeypatch.setattr(row_solve, "row_solver", lambda: None)


def inverse_of(rng, rank):
    """``(G + trace(G)/F I)^-1`` of a random Gram via its Cholesky
    factor, and the factor."""
    w = rng.standard_normal((rank + 3, rank))
    gram = w.T @ w
    chol = CholeskyFactor(gram + np.trace(gram) / rank * np.eye(rank))
    return chol.inverse(), chol


def replay(x, inverse):
    return numpy_row_solve(np.array(x, order="C"), inverse)


def test_best_variant_serves_wherever_it_builds(solvers):
    solver = row_solve.row_solver()
    assert solver is not None
    assert solver.variant == list(solvers)[-1]
    assert list(solvers)[0] == "baseline"


class TestBitIdentity:
    @pytest.mark.parametrize("rank", RANKS)
    def test_every_variant_every_tail(self, solvers, rank):
        rng = np.random.default_rng(rank)
        inverse, _ = inverse_of(rng, rank)
        for rows in ROWS + (37,):
            x = native.signed_values(rng, rows, rank)
            want = replay(x, inverse)
            for name, solver in solvers.items():
                got = solver(x.copy(), inverse)
                assert got.tobytes() == want.tobytes(), (name, rows)

    @pytest.mark.parametrize("rank", (3, 8, 17))
    def test_signed_zeros(self, solvers, rank):
        rng = np.random.default_rng(10 + rank)
        inverse = np.abs(inverse_of(rng, rank)[0])
        inverse[:, ::2] *= -1.0  # all-(-0.0) rows give -0.0 in odd columns
        x = np.full((6, rank), -0.0)
        x[1::2, ::2] = 0.0
        want = replay(x, inverse)
        assert np.signbit(want).any() and (~np.signbit(want)).any()
        for solver in solvers.values():
            assert solver(x.copy(), inverse).tobytes() == want.tobytes()

    @pytest.mark.parametrize("rank", (5, 16, 33))
    def test_inf_and_nan_propagate_within_their_row(self, solvers, rank):
        rng = np.random.default_rng(20 + rank)
        inverse, _ = inverse_of(rng, rank)
        x = rng.standard_normal((11, rank))
        x[1, 0] = np.inf
        x[4, rank - 1] = -np.inf
        x[6, rank // 2] = np.nan
        x[9, 0], x[9, rank - 1] = np.inf, -np.inf  # inf - inf: NaN
        want = replay(x, inverse)
        bad = {1, 4, 6, 9}
        assert np.isfinite(want[[i for i in range(11) if i not in bad]]).all()
        assert not np.isfinite(want[sorted(bad)]).any()
        for solver in solvers.values():
            got = solver(x.copy(), inverse)
            assert (np.isnan(got) == np.isnan(want)).all()
            finite = ~np.isnan(want)
            assert got[finite].tobytes() == want[finite].tobytes()

    def test_in_place_and_out_of_place_agree(self, rng):
        _, chol = inverse_of(rng, 7)
        rhs = rng.standard_normal((13, 7))
        fresh = chol.solve_rows(rhs)
        assert fresh is not rhs
        work = rhs.copy()
        assert chol.solve_rows(work, out=work) is work
        other = np.empty_like(rhs)
        chol.solve_rows(rhs, out=other)
        assert fresh.tobytes() == work.tobytes() == other.tobytes()

    def test_any_rhs_layout(self, rng):
        _, chol = inverse_of(rng, 6)
        rhs = rng.standard_normal((9, 6))
        want = chol.solve_rows(rhs)
        for view in (np.asfortranarray(rhs), np.repeat(rhs, 2, 1)[:, ::2]):
            assert chol.solve_rows(view).tobytes() == want.tobytes()

    @pytest.mark.parametrize("backend", ["default", "numpy"])
    def test_both_backends_reject_bad_operands(self, rng, request,
                                               backend):
        if backend == "numpy":
            request.getfixturevalue("numpy_backend")
        inverse, chol = inverse_of(rng, 4)
        x = rng.standard_normal((5, 4))
        with pytest.raises(ValueError, match="C-contiguous"):
            chol.solve_rows(x, out=np.asfortranarray(x))
        with pytest.raises(ValueError, match="4 columns"):
            row_solve.solve_rows(rng.standard_normal((5, 3)), inverse)
        with pytest.raises(ValueError, match="float64"):
            chol.solve_rows(x, out=x.astype(np.float32))
        with pytest.raises(ValueError, match="inverse"):
            row_solve.solve_rows(x, np.asfortranarray(inverse))


class TestRowIndependence:
    @pytest.mark.parametrize("rank", (1, 7, 16, 32))
    def test_any_row_subset_matches_the_full_solve(self, solvers, rank):
        rng = np.random.default_rng(30 + rank)
        inverse, _ = inverse_of(rng, rank)
        x = native.signed_values(rng, 41, rank)
        subsets = [rng.choice(41, size, replace=False)
                   for size in (1, 2, 3, 5, 8, 13, 40)]
        subsets.append(np.arange(41)[::-1])
        for solve in [replay, *solvers.values()]:
            full = solve(x.copy(), inverse)
            for rows in subsets:
                part = solve(x[rows].copy(), inverse)
                assert part.tobytes() == full[rows].tobytes()


def relative_difference(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestAccuracyAgainstPotrs:
    @pytest.mark.parametrize("rank", (2, 7, 16, 32, 50))
    def test_trace_rho(self, rng, rank):
        """cond(G + trace(G)/F I) <= F + 1: as accurate as the substitution."""
        _, chol = inverse_of(rng, rank)
        rhs = rng.standard_normal((500, rank)) * 10.0
        assert relative_difference(chol.solve_rows(rhs),
                                   chol.solve_t(rhs)) <= 1e-14

    def test_fixed_rho_ill_conditioned(self, rng):
        """A FixedRho eight decades below a singular Gram's scale."""
        rank = 12
        basis, _ = np.linalg.qr(rng.standard_normal((rank, rank)))
        gram = (basis * np.append(0.0, np.logspace(-3, 0, rank - 1))) \
            @ basis.T
        shifted = gram + FixedRho(1e-8).rho(gram) * np.eye(rank)
        cond = np.linalg.cond(shifted)
        assert 1e7 < cond < 1e9
        chol = CholeskyFactor(shifted)
        rhs = rng.standard_normal((300, rank))
        err = relative_difference(chol.solve_rows(rhs), chol.solve_t(rhs))
        assert err <= 8 * rank * cond * np.finfo(float).eps

    def test_jittered_rank_deficient_gram(self, rng):
        """L1 killed two columns: the Cholesky needed jitter, and the
        solve uses the jittered factor's inverse."""
        rank = 8
        w = rng.standard_normal((30, rank))
        w[:, [2, 5]] = 0.0
        chol = CholeskyFactor(w.T @ w)
        assert chol.jitter_added > 0.0
        jittered = w.T @ w + chol.jitter_added * np.eye(rank)
        cond = np.linalg.cond(jittered)
        rhs = rng.standard_normal((100, rank))
        got = chol.solve_rows(rhs)
        assert np.isfinite(got).all()
        err = relative_difference(got, chol.solve_t(rhs))
        assert err <= 8 * rank * cond * np.finfo(float).eps
        live = [0, 1, 3, 4, 6, 7]
        wl = w[:, live]
        np.testing.assert_allclose(
            got[:, live], np.linalg.solve(wl.T @ wl, rhs[:, live].T).T,
            rtol=1e-8)


def solve_both(mttkrp, gram, name, primal, **kwargs):
    batched = AdmmState(primal)
    reference = batched.copy()
    got = blocked_admm_update(batched, mttkrp, gram, make_constraint(name),
                              **kwargs)
    want = per_block_admm_reference(reference, mttkrp, gram,
                                    make_constraint(name), **kwargs)
    return got, want, batched, reference


def problem(rng, rows, rank):
    w = rng.standard_normal((rank + 6, rank))
    x = np.abs(rng.standard_normal((rows, rank))) @ w.T
    mttkrp = x @ w
    mttkrp[:rows // 3] *= 30.0
    return mttkrp, w.T @ w


class TestBlockedMatchesPerBlockOnBothBackends:
    @pytest.mark.parametrize("backend", ["default", "numpy"])
    @pytest.mark.parametrize("name", ["nonneg", "l1", "nonneg_l1", "box"])
    def test_bitwise(self, rng, request, backend, name):
        if backend == "numpy":
            request.getfixturevalue("numpy_backend")
        for rows, rank, block_size in [(23, 7, 10), (61, 16, 13),
                                       (40, 3, 1), (17, 9, 10**9)]:
            mttkrp, gram = problem(rng, rows, rank)
            got, want, batched, reference = solve_both(
                mttkrp, gram, name, np.abs(rng.standard_normal((rows, rank))),
                tolerance=1e-7, max_iterations=40, block_size=block_size)
            assert batched.primal.tobytes() == reference.primal.tobytes()
            assert batched.dual.tobytes() == reference.dual.tobytes()
            assert got == want


def parent_admm_loop(state, mttkrp, gram, constraint, rho_policy=None,
                     tolerance=1e-4, max_iterations=50):
    """The unblocked loop as it was before it reused work buffers: fresh
    temporaries every iteration (only the solve is today's)."""
    rho = (rho_policy or TraceRho()).rho(gram)
    chol = CholeskyFactor(gram + rho * np.eye(state.rank))
    primal, dual = state.primal, state.dual
    iterations = 0
    r = s = float("inf")
    while iterations < max_iterations:
        iterations += 1
        aux = chol.solve_rows(mttkrp + rho * (primal + dual))
        primal_prev = primal
        primal = constraint.prox(aux - dual, 1.0 / rho)
        dual = dual + primal - aux
        r, s = relative_residuals(primal, aux, primal_prev, dual)
        if r < tolerance and s < tolerance:
            break
    state.primal, state.dual = primal, dual
    return iterations, r, s


class TestAllocationFreeUnblockedLoop:
    @pytest.mark.parametrize("name", available_constraints())
    def test_matches_the_parent_loop_bitwise(self, rng, name):
        for rows, rank, cap in [(0, 4, 5), (1, 1, 7), (30, 6, 3),
                                (57, 16, 60)]:
            mttkrp, gram = problem(rng, rows, rank)
            start = AdmmState(np.abs(rng.standard_normal((rows, rank))),
                              0.1 * rng.standard_normal((rows, rank)))
            ours, parent = start.copy(), start.copy()
            report = admm_update(ours, mttkrp, gram, make_constraint(name),
                                 tolerance=1e-6, max_iterations=cap)
            iterations, r, s = parent_admm_loop(
                parent, mttkrp, gram, make_constraint(name), tolerance=1e-6,
                max_iterations=cap)
            assert ours.primal.tobytes() == parent.primal.tobytes()
            assert ours.dual.tobytes() == parent.dual.tobytes()
            assert (report.iterations, report.primal_residual,
                    report.dual_residual) == (iterations, r, s)

    def test_float32_and_fortran_mttkrp(self, rng):
        mttkrp, gram = problem(rng, 25, 5)
        start = AdmmState(np.abs(rng.standard_normal((25, 5))))
        for view in (np.asfortranarray(mttkrp), mttkrp.astype(np.float32)):
            ours, parent = start.copy(), start.copy()
            admm_update(ours, view, gram, make_constraint("nonneg"),
                        tolerance=1e-8, max_iterations=30)
            parent_admm_loop(parent, view, gram, make_constraint("nonneg"),
                             tolerance=1e-8, max_iterations=30)
            assert ours.primal.tobytes() == parent.primal.tobytes()
            assert ours.dual.tobytes() == parent.dual.tobytes()

    def test_kkt_certificate_uses_the_same_solve(self, rng):
        mttkrp, gram = problem(rng, 30, 5)
        state = AdmmState(np.zeros((30, 5)))
        admm_update(state, mttkrp, gram, make_constraint("nonneg"),
                    tolerance=1e-14, max_iterations=3000)
        cert = kkt_certificate(state, mttkrp, gram, make_constraint("nonneg"))
        assert cert.satisfied(1e-6)


class TestWholeFits:
    @pytest.fixture(scope="class")
    def tensor(self):
        return load_dataset("reddit", "tiny", seed=3)[0]

    @pytest.mark.parametrize("blocked", [False, True])
    def test_factors_identical_with_and_without_kernel(
            self, tensor, monkeypatch, blocked):
        kwargs = dict(rank=8, constraints="nonneg_l1", blocked=blocked,
                      max_outer_iterations=4, seed=5)
        first = repro.fit(tensor, **kwargs)
        monkeypatch.setattr(row_solve, "row_solver", lambda: None)
        second = repro.fit(tensor, **kwargs)
        assert first.trace.records[-1].inner_iterations \
            == second.trace.records[-1].inner_iterations
        for got, want in zip(first.model.factors, second.model.factors):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blocked", [False, True])
    def test_solve_tag_on_spans(self, tensor, blocked):
        served = row_solve.backend()
        result = repro.fit(tensor, rank=8, constraints="nonneg",
                           blocked=blocked, max_outer_iterations=2, seed=5,
                           observe=True)
        keys = [k for k in result.metrics["histograms"]
                if k.startswith("span_seconds") and "admm.solve" in k]
        assert keys and all(f"solve={served}" in k for k in keys)


class TestFallback:
    @pytest.fixture
    def fresh(self):
        row_solve.reset()
        yield
        row_solve.reset()

    def test_self_check_rejects_a_one_bit_error(self, solvers):
        for name, solver in solvers.items():
            class OffByOneUlp(row_solve.RowSolver):
                def __call__(self, x, inverse):
                    super().__call__(x, inverse)
                    if x.size:
                        x.flat[x.size // 2] = np.nextafter(
                            x.flat[x.size // 2], np.inf)
                    return x

            broken = OffByOneUlp(solver._fn, solver._blocks, name)
            with pytest.raises(native.NativeUnavailable, match=name):
                row_solve.self_check(broken)
            row_solve.self_check(solver)

    def test_one_warning_one_record_and_identical_factors(
            self, solvers, fresh, monkeypatch):
        tensor = random_coo((20, 18, 16), 400, seed=12)
        kwargs = dict(rank=4, constraints="nonneg", max_outer_iterations=3,
                      seed=11)
        reference = repro.fit(tensor, **kwargs)
        assert row_solve.row_solver() is not None
        row_solve.reset()

        class SignFlip(row_solve.RowSolver):
            def __call__(self, x, inverse):
                super().__call__(x, inverse)
                if x.size:
                    x.flat[0] = -x.flat[0]
                return x

        monkeypatch.setattr(row_solve, "RowSolver", SignFlip)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = repro.fit(tensor, observe=True, **kwargs)
            second = repro.fit(tensor, **kwargs)
        ours = [w for w in caught
                if "native row solve unavailable" in str(w.message)]
        assert len(ours) == 1
        assert issubclass(ours[0].category, RuntimeWarning)
        assert row_solve.row_solver() is None
        assert native.root_kernel() is not None  # its own verdict
        counters = first.metrics["counters"]
        assert {k: v for k, v in counters.items()
                if k.startswith("kernel_fallbacks")} \
            == {"kernel_fallbacks{kernel=row_solve}": 1}
        for result in (first, second):
            for got, want in zip(result.model.factors,
                                 reference.model.factors):
                assert got.tobytes() == want.tobytes()

    def test_no_compiler_means_no_solver(self, fresh, monkeypatch, tmp_path):
        empty = tmp_path / "empty-bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        with pytest.warns(RuntimeWarning, match="native row solve"):
            assert row_solve.row_solver() is None
        assert row_solve.backend() == "numpy"
        _, chol = inverse_of(np.random.default_rng(1), 5)
        assert chol.rows_backend == "numpy"
