"""The ADMM line-6 solve: LAPACK ``potrs`` against the row-independent solve.

Times, for ranks 16, 32 and 50 and 2.2k, 5k, 14k and 60k rows (the
mode lengths of the ``small`` corpora span this range):

* ``potrs`` — :meth:`~repro.linalg.cholesky.CholeskyFactor.solve_t`
  in place (``scipy.linalg.cho_solve`` on the transposed right-hand
  side), the solve the ADMM used before;
* every compiled variant of ``row_solve.c`` this CPU runs (AVX-512F,
  AVX2, baseline), multiplying by the inverse formed once per mode
  update;
* the NumPy replay, which serves when no compiler is available.

Every variant must be byte-equal to the replay, and no variant that
ships may be slower than ``potrs`` at ranks 16 and 32.  The replay's
cost against ``potrs`` is recorded as ``replay_over_potrs``.  Timings
are the median of several calls on a fresh copy of the right-hand side.
Run it with one BLAS thread, as ``perfbench`` fits run::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_row_solve.py -q -s

Output: ``results/BENCH_row_solve.json`` and ``results/row_solve.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.kernels import native, row_solve
from repro.linalg import CholeskyFactor

from conftest import BENCH_SEED, save_artifact, save_bench_json

RANKS = (16, 32, 50)
ROWS = (2200, 5000, 14000, 60000)
#: Ranks at which every shipped variant must beat ``potrs``.
GATED_RANKS = (16, 32)


def _median_ms(solve, rhs: np.ndarray, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        work = rhs.copy()
        start = time.perf_counter()
        solve(work)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def test_row_solve(results_dir):
    try:
        solvers = row_solve.load_solvers()
    except native.NativeUnavailable as exc:
        pytest.skip(f"native row solve unavailable: {exc}")
    rng = np.random.default_rng(BENCH_SEED)
    rows_out = []
    for rank in RANKS:
        w = rng.standard_normal((rank + 10, rank))
        gram = w.T @ w
        chol = CholeskyFactor(gram + np.trace(gram) / rank * np.eye(rank))
        inverse = chol.inverse()
        for rows in ROWS:
            rhs = rng.standard_normal((rows, rank))
            repeats = 15 if rows <= 14000 else 7
            want = row_solve.numpy_row_solve(rhs.copy(), inverse)
            row = {"rank": rank, "rows": rows,
                   "potrs_ms": _median_ms(
                       lambda x: chol.solve_t(x, overwrite=True), rhs,
                       repeats),
                   "replay_ms": _median_ms(
                       lambda x: row_solve.numpy_row_solve(x, inverse),
                       rhs, max(3, repeats // 3))}
            for name, solver in solvers.items():
                assert solver(rhs.copy(), inverse).tobytes() \
                    == want.tobytes(), (name, rank, rows)
                row[f"{name}_ms"] = _median_ms(
                    lambda x, s=solver: s(x, inverse), rhs, repeats)
            row["replay_over_potrs"] = row["replay_ms"] / row["potrs_ms"]
            rows_out.append(row)

    variants = list(solvers)
    lines = ["ADMM line-6 solve, one thread, median ms per call",
             f"{'rank':>4} {'rows':>6} {'potrs':>8} "
             + " ".join(f"{v:>8}" for v in variants)
             + f" {'replay':>8} {'replay/potrs':>12}"]
    for row in rows_out:
        lines.append(f"{row['rank']:>4} {row['rows']:>6} "
                     f"{row['potrs_ms']:>8.3f} "
                     + " ".join(f"{row[v + '_ms']:>8.3f}" for v in variants)
                     + f" {row['replay_ms']:>8.3f}"
                     f" {row['replay_over_potrs']:>12.2f}")
    save_artifact(results_dir, "row_solve", "\n".join(lines))
    save_bench_json(results_dir, "row_solve", {
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "variants": variants,
        "served": variants[-1],
        "rows": rows_out,
    })

    slow = [(row["rank"], row["rows"], v) for row in rows_out
            for v in variants
            if row["rank"] in GATED_RANKS
            and row[f"{v}_ms"] >= row["potrs_ms"]]
    assert not slow, f"variants slower than potrs: {slow}"
