"""The fused ADMM block loop: bit identity with the NumPy loop, fallback.

For ``nonneg`` and ``nonneg_l1``, one compiled call
(:meth:`repro.kernels.row_solve.RowSolver.admm_blocks`) runs Algorithm
1 on every row block until it converges.  Every ISA variant must give
the NumPy block loop's factors, duals, iteration counts and residuals
byte for byte (``tobytes()``), over column tails, short last blocks,
iteration caps, non-finite MTTKRP entries and signed zeros.  The
residual sums follow one defined order, pinned here against plain
Python loops.
"""

import math
import warnings

import numpy as np
import pytest

import repro
from repro.admm import (AdmmState, TraceRho, admm_update,
                        blocked_admm_update)
from repro.admm.blocked import (CHUNKS_PER_WORKER, block_chunks,
                                 numpy_block_loop)
from repro.admm import residuals
from repro.admm.residuals import block_sqnorms, relative_residuals
from repro.constraints.l1 import NonNegativeL1
from repro.constraints.registry import make_constraint
from repro.datasets import load_dataset
from repro.kernels import native, row_solve
from repro.kernels.row_solve import PROX_KINDS, numpy_row_solve
from repro.linalg import CholeskyFactor
from repro.parallel.partition import row_blocks
from repro.testing.oracles import per_block_admm_reference

RANKS = tuple(range(1, 10)) + (15, 16, 17, 31, 32, 33, 50, 64)
#: 57 rows: blocks of 1, of 7 (a 1-row tail), of 50 (a 7-row tail) and
#: one block of every row.
ROWS = 57
BLOCK_SIZES = (1, 7, 50, 10**9)


@pytest.fixture(scope="module")
def solvers():
    """Every compiled variant this CPU runs, without the self-check."""
    try:
        return row_solve.load_solvers()
    except native.NativeUnavailable as exc:
        pytest.skip(f"native ADMM kernel unavailable: {exc}")


@pytest.fixture
def numpy_backend(monkeypatch):
    """Serve every ADMM solve from NumPy (solve and block loop)."""
    monkeypatch.setattr(row_solve, "row_solver", lambda: None)


def constraint_of(name, weight=0.3):
    return make_constraint(name) if name == "nonneg" \
        else make_constraint(name, weight=weight)


def problem(rng, rows, rank):
    """MTTKRP, Gram and a warm start near the solution.  The exact least
    squares rows are partly negative, so the prox binds and the duals
    stay away from zero; a third of the rows carry 30x the signal, so
    blocks stop at different iterations."""
    w = rng.standard_normal((rank + 6, rank))
    truth = rng.standard_normal((rows, rank)) + 0.5
    truth[:rows // 3] *= 30.0
    gram = w.T @ w
    start = AdmmState(np.abs(truth + 0.3 * rng.standard_normal((rows, rank))),
                      0.01 * rng.standard_normal((rows, rank)))
    return truth @ gram, gram, start


def setup(gram):
    rank = gram.shape[0]
    rho = TraceRho().rho(gram)
    return rho, CholeskyFactor(gram + rho * np.eye(rank)).inverse()


def run_numpy(start, mttkrp, gram, constraint, tolerance, max_iterations,
              block_size):
    """The NumPy block loop (line 6 by the replay) on a copy of *start*."""
    rho, inverse = setup(gram)
    state = start.copy()
    iterations, converged, res = numpy_block_loop(
        state.primal, state.dual, np.ascontiguousarray(mttkrp),
        lambda x: numpy_row_solve(x, inverse), rho, constraint, tolerance,
        max_iterations, block_size)
    return state, iterations.tolist(), converged.tolist(), res


def run_native(solver, start, mttkrp, gram, constraint, tolerance,
               max_iterations, block_size):
    rho, inverse = setup(gram)
    state = start.copy()
    iterations, converged, res = solver.admm_blocks(
        state.primal, state.dual, np.ascontiguousarray(mttkrp), inverse,
        rho, constraint.native_prox(1.0 / rho), tolerance, max_iterations,
        block_size)
    return state, iterations.tolist(), converged.tolist(), res


def assert_same(got, want):
    (gs, gi, gc, gr), (ws, wi, wc, wr) = got, want
    assert gs.primal.tobytes() == ws.primal.tobytes()
    assert gs.dual.tobytes() == ws.dual.tobytes()
    assert (gi, gc) == (wi, wc)
    assert gr.tobytes() == wr.tobytes()


def assert_same_but_nan_payloads(got, want):
    """NaNs in the same places and every other entry byte-equal.  Which
    NaN an operation with two NaN operands returns is not replayed (the
    line-6 solve does not replay it either, see test_row_solve.py)."""
    (gs, gi, gc, gr), (ws, wi, wc, wr) = got, want
    for g, w in ((gs.primal, ws.primal), (gs.dual, ws.dual), (gr, wr)):
        nan = np.isnan(w)
        assert (np.isnan(g) == nan).all()
        assert g[~nan].tobytes() == w[~nan].tobytes()
    assert (gi, gc) == (wi, wc)


class TestEveryVariantAgainstNumpy:
    @pytest.mark.parametrize("name", PROX_KINDS)
    @pytest.mark.parametrize("rank", RANKS)
    def test_ranks_and_block_sizes(self, solvers, rank, name):
        rng = np.random.default_rng(rank)
        mttkrp, gram, start = problem(rng, ROWS, rank)
        constraint = constraint_of(name)
        for block_size in BLOCK_SIZES:
            args = (start, mttkrp, gram, constraint, 1e-6, 40, block_size)
            want = run_numpy(*args)
            for solver in solvers.values():
                assert_same(run_native(solver, *args), want)

    def test_blocks_stop_at_different_iterations(self):
        """The problems above mix converged and capped blocks."""
        rng = np.random.default_rng(8)
        mttkrp, gram, start = problem(rng, ROWS, 8)
        _, iterations, converged, _ = run_numpy(
            start, mttkrp, gram, constraint_of("nonneg"), 1e-6, 40, 1)
        assert len(set(iterations)) > 5
        assert 0 < sum(converged) < ROWS

    @pytest.mark.parametrize("name", PROX_KINDS)
    @pytest.mark.parametrize("max_iterations, tolerance", [
        (0, 1e-6), (1, 1e-6), (3, 1e-6), (25, 0.0)])
    def test_caps_and_zero_tolerance(self, solvers, name, max_iterations,
                                     tolerance):
        rng = np.random.default_rng(max_iterations)
        mttkrp, gram, start = problem(rng, 23, 9)
        for block_size in (7, 10**9):
            args = (start, mttkrp, gram, constraint_of(name), tolerance,
                    max_iterations, block_size)
            want = run_numpy(*args)
            assert want[1] == [max_iterations] * len(want[1])
            assert not any(want[2])
            for solver in solvers.values():
                assert_same(run_native(solver, *args), want)

    @pytest.mark.parametrize("name", PROX_KINDS)
    @pytest.mark.parametrize("rank", (3, 8, 17))
    def test_nan_and_inf_in_mttkrp(self, solvers, name, rank):
        rng = np.random.default_rng(30 + rank)
        mttkrp, gram, start = problem(rng, 30, rank)
        mttkrp[2, 0] = np.nan
        mttkrp[9, rank - 1] = np.inf
        mttkrp[16, rank // 2] = -np.inf
        mttkrp[23, 0], mttkrp[23, rank - 1] = np.nan, np.inf
        for block_size in (7, 10**9):
            args = (start, mttkrp, gram, constraint_of(name), 1e-6, 12,
                    block_size)
            with np.errstate(invalid="ignore"):
                want = run_numpy(*args)
            assert np.isnan(want[0].primal).any()
            assert np.isfinite(want[0].primal[3]).all()
            for solver in solvers.values():
                assert_same_but_nan_payloads(run_native(solver, *args), want)

    @pytest.mark.parametrize("name", PROX_KINDS)
    def test_signed_zeros(self, solvers, name):
        rng = np.random.default_rng(40)
        mttkrp, gram, start = problem(rng, 20, 9)
        mttkrp[::2] = -0.0
        mttkrp[1::4] = 0.0
        start.primal[:10] = -0.0
        start.dual[::3] = -0.0
        start.dual[1::3] = 0.0
        for block_size in (1, 6, 10**9):
            args = (start, mttkrp, gram, constraint_of(name), 1e-6, 8,
                    block_size)
            want = run_numpy(*args)
            for solver in solvers.values():
                assert_same(run_native(solver, *args), want)

    def test_nonneg_l1_signs_and_zero_weights(self, solvers):
        """Both signs straddle the threshold; weight 0 leaves nonneg_l1
        a plain projection."""
        rng = np.random.default_rng(50)
        mttkrp, gram, start = problem(rng, 31, 10)
        mttkrp *= np.where(rng.random(mttkrp.shape) < 0.5, -1.0, 1.0)
        start.primal *= np.where(rng.random(mttkrp.shape) < 0.5, -1.0, 1.0)
        rho, _ = setup(gram)
        for constraint in (NonNegativeL1(0.0), NonNegativeL1(rho),
                           NonNegativeL1(40.0 * rho)):
            for block_size in (5, 10**9):
                args = (start, mttkrp, gram, constraint, 1e-6, 15,
                        block_size)
                want = run_numpy(*args)
                for solver in solvers.values():
                    assert_same(run_native(solver, *args), want)

    def test_rejects_bad_operands(self, solvers):
        solver = list(solvers.values())[-1]
        rng = np.random.default_rng(60)
        mttkrp, gram, start = problem(rng, 8, 3)
        rho, inverse = setup(gram)
        prox = ("nonneg", 0.0)
        with pytest.raises(ValueError, match="mttkrp"):
            solver.admm_blocks(start.primal, start.dual,
                               np.asfortranarray(mttkrp), inverse, rho, prox,
                               1e-6, 5, 4)
        with pytest.raises(ValueError):
            solver.admm_blocks(np.asfortranarray(start.primal), start.dual,
                               mttkrp, inverse, rho, prox, 1e-6, 5, 4)
        with pytest.raises(ValueError, match="prox"):
            solver.admm_blocks(start.primal, start.dual, mttkrp, inverse,
                               rho, ("box", 0.0), 1e-6, 5, 4)


def with_solver(monkeypatch, solver):
    monkeypatch.setattr(row_solve, "row_solver", lambda: solver)


class TestReportsThroughTheSolvers:
    """``blocked_admm_update`` and ``admm_update`` give the same state and
    report with every variant as with NumPy."""

    @pytest.mark.parametrize("name", PROX_KINDS)
    def test_blocked_report(self, solvers, monkeypatch, name):
        rng = np.random.default_rng(70)
        mttkrp, gram, start = problem(rng, 61, 16)
        kwargs = dict(tolerance=1e-7, max_iterations=40, block_size=13)
        with_solver(monkeypatch, None)
        want_state = start.copy()
        want = blocked_admm_update(want_state, mttkrp, gram,
                                   constraint_of(name), **kwargs)
        for solver in solvers.values():
            with_solver(monkeypatch, solver)
            state = start.copy()
            got = blocked_admm_update(state, mttkrp, gram,
                                      constraint_of(name), **kwargs)
            assert got == want
            assert state.primal.tobytes() == want_state.primal.tobytes()
            assert state.dual.tobytes() == want_state.dual.tobytes()

    @pytest.mark.parametrize("name", PROX_KINDS)
    @pytest.mark.parametrize("cap", (0, 1, 60))
    def test_unblocked_report_and_residuals(self, solvers, monkeypatch,
                                            name, cap):
        rng = np.random.default_rng(80 + cap)
        mttkrp, gram, start = problem(rng, 45, 7)
        with_solver(monkeypatch, None)
        want_state = start.copy()
        want = admm_update(want_state, mttkrp, gram, constraint_of(name),
                           tolerance=1e-6, max_iterations=cap)
        for solver in solvers.values():
            with_solver(monkeypatch, solver)
            state = start.copy()
            got = admm_update(state, mttkrp, gram, constraint_of(name),
                              tolerance=1e-6, max_iterations=cap)
            assert got == want
            assert state.primal.tobytes() == want_state.primal.tobytes()
            assert state.dual.tobytes() == want_state.dual.tobytes()

    def test_float32_and_fortran_mttkrp(self, solvers, monkeypatch):
        rng = np.random.default_rng(90)
        mttkrp, gram, start = problem(rng, 25, 5)
        for view in (np.asfortranarray(mttkrp), mttkrp.astype(np.float32)):
            results = []
            for solver in (None, list(solvers.values())[-1]):
                with_solver(monkeypatch, solver)
                state = start.copy()
                admm_update(state, view, gram, make_constraint("nonneg"))
                results.append(state.primal.tobytes())
            assert results[0] == results[1]


class TestBlockedMatchesPerBlockReference:
    @pytest.mark.parametrize("backend", ["default", "numpy"])
    @pytest.mark.parametrize("name", PROX_KINDS)
    def test_bitwise(self, request, backend, name):
        if backend == "numpy":
            request.getfixturevalue("numpy_backend")
        rng = np.random.default_rng(100)
        for rows, rank, block_size in [(23, 7, 10), (61, 16, 13),
                                       (40, 3, 1), (17, 9, 10**9)]:
            mttkrp, gram, start = problem(rng, rows, rank)
            batched, reference = start.copy(), start.copy()
            kwargs = dict(tolerance=1e-7, max_iterations=40,
                          block_size=block_size)
            got = blocked_admm_update(batched, mttkrp, gram,
                                      constraint_of(name), **kwargs)
            want = per_block_admm_reference(reference, mttkrp, gram,
                                            constraint_of(name), **kwargs)
            assert batched.primal.tobytes() == reference.primal.tobytes()
            assert batched.dual.tobytes() == reference.dual.tobytes()
            assert got == want


class TestChunksOfBlocksOverThreads:
    """The compiled loop's chunks of blocks fan out over the executor; the
    state and the report are the per-block reference's, byte for byte,
    for every thread count and executor."""

    @pytest.mark.parametrize("rows, block_size, threads", [
        (137, 50, 4), (137, 1, 2), (137, 10**9, 4), (1000, 7, 2),
        (120, 50, 4), (400, 1, 1)])
    def test_chunks_fall_on_block_boundaries(self, rows, block_size,
                                           threads):
        blocks = row_blocks(rows, block_size)
        chunks = block_chunks(blocks, threads)
        assert len(chunks) == min(len(blocks), CHUNKS_PER_WORKER * threads)
        assert chunks[0].start == 0 and chunks[-1].stop == rows
        starts = {b.start for b in blocks}
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start and b.start in starts
        sizes = [sum(c.start <= b.start < c.stop for b in blocks)
                 for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("name", PROX_KINDS)
    @pytest.mark.parametrize("block_size", [1, 50, 10**9])
    def test_every_thread_count_and_executor(self, name, block_size):
        # 137 rows: not a multiple of 50; at 50-row blocks 4 threads
        # ask for more chunks than the 3 blocks there are, and one block
        # of every row runs as one call whatever the thread count.
        rng = np.random.default_rng(120)
        mttkrp, gram, start = problem(rng, 137, 16)
        kwargs = dict(tolerance=1e-7, max_iterations=40,
                      block_size=block_size)
        want = start.copy()
        want_report = per_block_admm_reference(
            want, mttkrp, gram, constraint_of(name), **kwargs)
        for executor in ("serial", "thread"):
            for threads in (1, 2, 4):
                state = start.copy()
                report = blocked_admm_update(
                    state, mttkrp, gram, constraint_of(name),
                    executor=executor, threads=threads, **kwargs)
                assert report == want_report, (executor, threads)
                assert state.primal.tobytes() == want.primal.tobytes()
                assert state.dual.tobytes() == want.dual.tobytes()

    def test_whole_fit_with_capped_blocks(self):
        # NELL's blocks stop at very different iterations, many at the
        # cap: the skewed case the chunks per worker are there for.
        tensor = load_dataset("nell", "tiny", seed=1)[0]
        kwargs = dict(rank=16, max_outer_iterations=2, seed=7,
                      track_block_reports=True)
        runs = [repro.fit(tensor, executor=executor, threads=threads,
                          **kwargs)
                for executor, threads in (("serial", 1), ("thread", 2),
                                          ("thread", 4))]
        for other in runs[1:]:
            for got, want in zip(other.model.factors, runs[0].model.factors):
                assert got.tobytes() == want.tobytes()
            assert [r.block_reports for r in other.trace.records] \
                == [r.block_reports for r in runs[0].trace.records]

    @pytest.mark.parametrize("executor, threads", [
        ("serial", 2), ("thread", 1), ("thread", 2)])
    def test_chunks_and_workers_on_spans(self, executor, threads):
        # Reddit tiny's modes have 620, 60 and 1020 rows: 13, 2 and 21
        # blocks of 50.
        tensor = load_dataset("reddit", "tiny", seed=3)[0]
        result = repro.fit(tensor, rank=4, max_outer_iterations=1, seed=5,
                           executor=executor, threads=threads,
                           observe=True)
        spans = [dict(tag.split("=") for tag in k[k.index("{") + 1:-1]
                      .split(","))
                 for k in result.metrics["histograms"]
                 if k.startswith("span_seconds") and "admm.solve" in k]
        assert len(spans) == 3
        native = row_solve.row_solver() is not None
        for tags in spans:
            blocks = int(tags["blocks"])
            chunks = min(blocks, CHUNKS_PER_WORKER * threads) \
                if native else 1
            assert int(tags["chunks"]) == chunks
            assert int(tags["workers"]) == (
                threads if executor == "thread" and chunks > 1 else 1)


#: The perfbench configurations (``perfbench/workloads.py``), at ``tiny``
#: size and in core.
WORKLOADS = [
    ("nell", dict(rank=16, constraints="nonneg", blocked=True)),
    ("patents", dict(rank=32, constraints="nonneg", blocked=True)),
    ("reddit", dict(rank=16, constraints="nonneg_l1", blocked=False,
                    repr_policy="auto")),
    ("amazon", dict(rank=16, constraints="nonneg", blocked=True)),
]


class TestWholeFits:
    @pytest.mark.parametrize("dataset, config", WORKLOADS,
                             ids=[w[0] for w in WORKLOADS])
    def test_factors_identical_with_and_without_kernel(
            self, monkeypatch, dataset, config):
        tensor = load_dataset(dataset, "tiny", seed=1)[0]
        kwargs = dict(config, max_outer_iterations=2, seed=7)
        first = repro.fit(tensor, **kwargs)
        monkeypatch.setattr(row_solve, "row_solver", lambda: None)
        second = repro.fit(tensor, **kwargs)
        assert [r.inner_iterations for r in first.trace.records] \
            == [r.inner_iterations for r in second.trace.records]
        for got, want in zip(first.model.factors, second.model.factors):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("constraints, blocked, loop", [
        ("nonneg", True, None), ("nonneg_l1", False, None),
        ("l1", True, "numpy"), ("box", True, "numpy"),
        ("smooth", False, "numpy")])
    def test_loop_tag_on_spans(self, constraints, blocked, loop):
        loop = loop or row_solve.backend()
        tensor = load_dataset("reddit", "tiny", seed=3)[0]
        result = repro.fit(tensor, rank=4, constraints=constraints,
                           blocked=blocked, max_outer_iterations=1, seed=5,
                           observe=True)
        keys = [k for k in result.metrics["histograms"]
                if k.startswith("span_seconds") and "admm.solve" in k]
        assert keys and all(f"loop={loop}" in k for k in keys)


class TestSelfCheckAndFallback:
    @pytest.fixture
    def fresh(self):
        row_solve.reset()
        yield
        row_solve.reset()

    def test_self_check_rejects_a_one_bit_error(self, solvers):
        for name, solver in solvers.items():
            class OffByOneUlp(row_solve.RowSolver):
                def admm_blocks(self, primal, *args):
                    out = super().admm_blocks(primal, *args)
                    primal.flat[primal.size // 2] = np.nextafter(
                        primal.flat[primal.size // 2], np.inf)
                    return out

            class OneMoreIteration(row_solve.RowSolver):
                def admm_blocks(self, *args):
                    iterations, converged, res = super().admm_blocks(*args)
                    iterations[-1] += 1
                    return iterations, converged, res

            for broken in (OffByOneUlp, OneMoreIteration):
                with pytest.raises(native.NativeUnavailable,
                                   match=f"fused ADMM .*{name}"):
                    row_solve.self_check(
                        broken(solver._fn, solver._blocks, name))
            row_solve.self_check(solver)

    def test_a_failing_loop_falls_back_once_with_identical_factors(
            self, solvers, fresh, monkeypatch):
        tensor = load_dataset("reddit", "tiny", seed=3)[0]
        kwargs = dict(rank=4, constraints="nonneg", blocked=True,
                      max_outer_iterations=2, seed=11)
        reference = repro.fit(tensor, **kwargs)
        row_solve.reset()

        class SignFlip(row_solve.RowSolver):
            def admm_blocks(self, primal, *args):
                out = super().admm_blocks(primal, *args)
                primal.flat[0] = -primal.flat[0]
                return out

        monkeypatch.setattr(row_solve, "RowSolver", SignFlip)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = repro.fit(tensor, observe=True, **kwargs)
        ours = [w for w in caught
                if "native row solve unavailable" in str(w.message)]
        assert len(ours) == 1 and "fused ADMM" in str(ours[0].message)
        assert row_solve.row_solver() is None
        counters = first.metrics["counters"]
        assert {k: v for k, v in counters.items()
                if k.startswith("kernel_fallbacks")} \
            == {"kernel_fallbacks{kernel=row_solve}": 1}
        for got, want in zip(first.model.factors, reference.model.factors):
            assert got.tobytes() == want.tobytes()

    def test_no_compiler_serves_the_numpy_loop(self, fresh, monkeypatch,
                                               tmp_path):
        rng = np.random.default_rng(110)
        mttkrp, gram, start = problem(rng, 30, 6)
        want = start.copy()
        want_report = blocked_admm_update(want, mttkrp, gram,
                                          make_constraint("nonneg"),
                                          block_size=7)
        empty = tmp_path / "empty-bin"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        row_solve.reset()
        with pytest.warns(RuntimeWarning, match="native row solve"):
            assert row_solve.row_solver() is None
        state = start.copy()
        report = blocked_admm_update(state, mttkrp, gram,
                                     make_constraint("nonneg"), block_size=7)
        assert report == want_report
        assert state.primal.tobytes() == want.primal.tobytes()
        assert state.dual.tobytes() == want.dual.tobytes()


def sequential_sqnorm(block):
    """Per column down the rows, then across the columns, one add at a
    time, in Python floats."""
    partials = []
    for column in block.T:
        acc = 0.0
        for value in column.tolist():
            acc = acc + value * value
        partials.append(acc)
    total = partials[0]
    for value in partials[1:]:
        total = total + value
    return total


class TestResidualOrder:
    @pytest.mark.parametrize("shape", [(100, 2), (1000, 3), (64, 16),
                                       (7, 50)])
    def test_numpy_reduces_a_non_innermost_axis_sequentially(self, shape):
        """What the residuals rely on: ``np.add.reduce`` over axis 0 of a
        C-ordered matrix with two or more columns adds row after row.
        (With one column, NumPy sums pairwise, which ``_column_sums``
        avoids.)"""
        rng = np.random.default_rng(shape[0])
        for _ in range(10):
            values = rng.uniform(0.0, 1.0, shape)
            want = values[0].copy()
            for row in values[1:]:
                want = want + row
            assert np.add.reduce(values, axis=0).tobytes() == want.tobytes()
            stacked = values.reshape(1, *shape)
            assert np.add.reduce(stacked, axis=1).tobytes() == want.tobytes()

    def test_numpy_accumulates_sequentially(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.0, 1.0, (3, 200))
        got = np.add.accumulate(values, axis=1)[:, -1]
        for row, total in zip(values, got.tolist()):
            acc = row[0]
            for value in row[1:]:
                acc = acc + value
            assert acc == total

    @pytest.mark.parametrize("einsum", (True, False))
    @pytest.mark.parametrize("rank", (1, 2, 9, 33))
    @pytest.mark.parametrize("block_rows", (1, 7, 300))
    def test_block_sqnorms_match_python_loops(self, monkeypatch, einsum,
                                              rank, block_rows):
        if einsum and not residuals.EINSUM_IN_ORDER:
            pytest.skip("this NumPy's einsum fuses multiply-add")
        monkeypatch.setattr(residuals, "EINSUM_IN_ORDER", einsum)
        rng = np.random.default_rng(rank * block_rows)
        matrix = rng.standard_normal((130, rank)) \
            * 10.0 ** rng.uniform(-4, 4, (130, rank))
        got = block_sqnorms(matrix, block_rows)
        want = [sequential_sqnorm(matrix[i:i + block_rows])
                for i in range(0, 130, block_rows)]
        assert got.tolist() == want

    def test_einsum_form_matches_the_reduction(self, monkeypatch):
        """Where the probe lets the einsum serve, it gives the squared
        reduction's bits on a large matrix over sixteen decades, for
        every block layout, and so does a whole NumPy blocked solve."""
        if not residuals.EINSUM_IN_ORDER:
            pytest.skip("this NumPy's einsum fuses multiply-add")
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((3001, 16)) \
            * 10.0 ** rng.uniform(-8, 8, (3001, 16))
        layouts = (1, 50, 1000, 10**9)
        want = [block_sqnorms(matrix, b) for b in layouts]
        with monkeypatch.context() as patch:
            patch.setattr(residuals, "EINSUM_IN_ORDER", False)
            for b, got in zip(layouts, want):
                assert got.tobytes() == block_sqnorms(matrix, b).tobytes()

        mttkrp, gram, start = problem(rng, 61, 16)
        monkeypatch.setattr(row_solve, "row_solver", lambda: None)
        runs = []
        for einsum in (True, False):
            monkeypatch.setattr(residuals, "EINSUM_IN_ORDER", einsum)
            state = start.copy()
            report = blocked_admm_update(state, mttkrp, gram,
                                         make_constraint("box"),
                                         tolerance=1e-7, block_size=13)
            runs.append((report, state.primal.tobytes(),
                         state.dual.tobytes()))
        assert runs[0] == runs[1]

    def test_relative_residuals_ignore_memory_order(self):
        rng = np.random.default_rng(2)
        ops = [rng.standard_normal((40, 6)) for _ in range(4)]
        want = relative_residuals(*ops)
        assert want == relative_residuals(*map(np.asfortranarray, ops))
        assert want[0] == sequential_sqnorm(ops[0] - ops[1]) \
            / sequential_sqnorm(ops[0])
        assert not math.isnan(want[1])

    def test_smooth_solve_byte_equal_from_c_and_fortran_primal(self):
        """``smooth`` returns a Fortran-ordered H; the residuals, hence the
        iteration count and every bit, do not depend on the order."""
        rng = np.random.default_rng(3)
        mttkrp, gram, start = problem(rng, 40, 5)
        results = []
        for order in ("C", "F"):
            state = start.copy()
            state.primal = np.array(state.primal, order=order)
            state.dual = np.array(state.dual, order=order)
            report = admm_update(state, mttkrp, gram,
                                 make_constraint("smooth"),
                                 tolerance=1e-9, max_iterations=80)
            results.append((report, state.primal.tobytes(order="C"),
                            state.dual.tobytes(order="C")))
        assert results[0] == results[1]
        assert 1 < results[0][0].iterations

    def test_smooth_fit_byte_equal_from_c_and_fortran_factors(self):
        tensor = load_dataset("reddit", "tiny", seed=3)[0]
        rng = np.random.default_rng(4)
        init = [np.abs(rng.standard_normal((n, 4))) for n in tensor.shape]
        fits = [repro.fit(tensor, rank=4, constraints="smooth",
                          blocked=False, max_outer_iterations=2,
                          initial_factors=[np.array(f, order=order)
                                           for f in init])
                for order in ("C", "F")]
        for got, want in zip(fits[0].model.factors, fits[1].model.factors):
            assert got.tobytes() == want.tobytes()
