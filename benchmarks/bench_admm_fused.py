"""Blocked ADMM: the NumPy active set against the fused compiled loop.

For ranks 16 and 32 with blocks of 50 rows, on each of the four
``small`` corpora, a two-iteration ``nonneg`` fit records the inputs of
its last three mode updates (warm-started primal and dual, MTTKRP,
Gram).  Each update is then timed three ways, median of three calls on
fresh copies of the state:

* ``active_ms`` — :func:`~repro.admm.blocked.numpy_block_loop`, the
  batched NumPy active set (line 6 by the compiled row solve), which
  serves every constraint without a compiled prox and every constraint
  without a compiler;
* ``fused_ms`` — one :meth:`~repro.kernels.row_solve.RowSolver.
  admm_blocks` call, each block running Algorithm 1 to convergence in
  cache, as :func:`~repro.admm.blocked.blocked_admm_update` runs it;
* ``floor_ms`` — the line-6 solve alone over as many rows as the update
  iterated (``sum(rows x iterations)`` rows in one
  :meth:`~repro.kernels.row_solve.RowSolver.__call__`): the arithmetic
  floor of the inner loop.

The two loops must leave byte-equal factors and duals and the same
report, and the fused loop must beat the active set in total at both
ranks.  Run it with one BLAS thread, as ``perfbench`` fits run::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_admm_fused.py -q -s

Output: ``results/BENCH_admm_fused.json`` and ``results/admm_fused.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

import repro
import repro.core.aoadmm as aoadmm_module
from repro.admm import TraceRho, blocked_admm_update
from repro.admm import blocked as blocked_module
from repro.constraints.nonneg import NonNegative
from repro.kernels import row_solve
from repro.linalg import CholeskyFactor

from conftest import BENCH_SEED, DATASET_NAMES, save_artifact, save_bench_json

RANKS = (16, 32)
BLOCK_SIZE = 50
REPEATS = 3


def _captured_updates(tensor, rank, monkeypatch):
    """``(state, mttkrp, gram)`` of the last three mode updates of a
    two-iteration blocked ``nonneg`` fit."""
    calls = []

    def record(state, mttkrp, gram, *args, **kwargs):
        calls.append((state.copy(), np.array(mttkrp), np.array(gram)))
        return blocked_admm_update(state, mttkrp, gram, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(aoadmm_module, "blocked_admm_update", record)
        repro.fit(tensor, rank=rank, constraints="nonneg", blocked=True,
                  block_size=BLOCK_SIZE, max_outer_iterations=2,
                  outer_tolerance=0.0, seed=BENCH_SEED)
    return calls[-tensor.nmodes:]


def _timed(update, start):
    """Median ms of *update* on fresh copies of *start*; the last state
    and result."""
    times = []
    for _ in range(REPEATS):
        state = start.copy()
        tick = time.perf_counter()
        result = update(state)
        times.append(time.perf_counter() - tick)
    return 1e3 * statistics.median(times), state, result


def _floor_ms(solver, rows, inverse):
    """Median ms of the line-6 solve alone over *rows* rows."""
    work = np.ones((rows, inverse.shape[0]))
    times = []
    for _ in range(REPEATS):
        tick = time.perf_counter()
        solver(work, inverse)
        times.append(time.perf_counter() - tick)
    return 1e3 * statistics.median(times)


def test_admm_fused(results_dir, small_datasets, monkeypatch):
    solver = row_solve.row_solver()
    if solver is None:
        pytest.skip("native ADMM kernel unavailable")
    rows_out = []
    for name in DATASET_NAMES:
        tensor = small_datasets[name]
        for rank in RANKS:
            for mode, (start, mttkrp, gram) in enumerate(
                    _captured_updates(tensor, rank, monkeypatch)):
                def run(state, mttkrp=mttkrp, gram=gram):
                    return blocked_admm_update(state, mttkrp, gram,
                                               NonNegative(),
                                               block_size=BLOCK_SIZE)

                fused_ms, fused, report = _timed(run, start)
                with monkeypatch.context() as patch:
                    patch.setattr(blocked_module, "native_loop",
                                  lambda *args: None)
                    active_ms, active, want = _timed(run, start)
                assert report == want, (name, rank, mode)
                assert fused.primal.tobytes() == active.primal.tobytes()
                assert fused.dual.tobytes() == active.dual.tobytes()
                rho = TraceRho().rho(gram)
                floor_ms = _floor_ms(
                    solver, report.total_row_iterations,
                    CholeskyFactor(gram + rho * np.eye(rank)).inverse())
                rows_out.append({
                    "dataset": name, "rank": rank, "mode": mode,
                    "rows": start.rows, "blocks": len(report.block_rows),
                    "row_iterations": report.total_row_iterations,
                    "active_ms": active_ms, "fused_ms": fused_ms,
                    "floor_ms": floor_ms,
                    "speedup": active_ms / fused_ms})

    totals = {rank: {key: sum(r[key] for r in rows_out if r["rank"] == rank)
                     for key in ("active_ms", "fused_ms", "floor_ms")}
              for rank in RANKS}
    lines = [f"Blocked ADMM per mode update (b={BLOCK_SIZE}, nonneg, "
             f"warm starts of outer iteration 2), one thread, served "
             f"variant {solver.variant}, median ms",
             f"{'dataset':>8} {'rank':>4} {'mode':>4} {'rows':>6} "
             f"{'row-its':>8} {'active':>8} {'fused':>8} {'floor':>8} "
             f"{'speedup':>7}"]
    for row in rows_out:
        lines.append(f"{row['dataset']:>8} {row['rank']:>4} "
                     f"{row['mode']:>4} {row['rows']:>6} "
                     f"{row['row_iterations']:>8} {row['active_ms']:>8.2f} "
                     f"{row['fused_ms']:>8.2f} {row['floor_ms']:>8.2f} "
                     f"{row['speedup']:>7.2f}")
    for rank, total in totals.items():
        lines.append(f"total rank {rank}: active {total['active_ms']:.1f} ms,"
                     f" fused {total['fused_ms']:.1f} ms, floor "
                     f"{total['floor_ms']:.1f} ms")
    save_artifact(results_dir, "admm_fused", "\n".join(lines))
    save_bench_json(results_dir, "admm_fused", {
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "variant": solver.variant,
        "block_size": BLOCK_SIZE,
        "rows": rows_out,
        "totals": {str(rank): total for rank, total in totals.items()},
    })

    for rank, total in totals.items():
        assert total["fused_ms"] < total["active_ms"], (rank, total)
