"""Whole fits at ``threads=1`` against the default thread count.

The default ``threads`` is the cores this process may run on: the
in-core MTTKRP slabs and blocked ADMM's chunks of row blocks fan out over
that many workers.  For each of the four ``perfbench`` configurations
(at library level, in core; NELL at ``tiny``, the others at ``small``),
``PAIRS`` pairs of two-iteration fits run back to back, one at
``threads=1`` and one at the default, alternating which goes first.
Each pair starts from its own initial factors, and both fits of a pair
must give byte-equal factors and the same inner-iteration counts.

Reported per workload: the median and quartiles of the wall time of
each side, the median per-pair ratio (``threads=1`` over the default),
and the medians of the ADMM and MTTKRP stage seconds of the fits'
traces.  Unblocked ADMM (Reddit) stays on the calling thread, so only
its MTTKRP can gain.  Run it with one BLAS thread, as ``perfbench``
fits run::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        benchmarks/bench_admm_threads.py -q -s

Output: ``results/BENCH_admm_threads.json`` and ``results/admm_threads.txt``.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

import repro
from repro.datasets import load_dataset
from repro.parallel.threadpool import effective_threads

from conftest import BENCH_SEED, save_artifact, save_bench_json

#: Pairs of fits per workload.
PAIRS = 12

#: ``(name, dataset, preset, fit options)``, as ``perfbench/workloads.py``
#: configures its workloads.
WORKLOADS = (
    ("nell-admm", "nell", "tiny",
     dict(rank=16, constraints="nonneg", blocked=True)),
    ("patents-mttkrp", "patents", "small",
     dict(rank=32, constraints="nonneg", blocked=True)),
    ("reddit-sparse", "reddit", "small",
     dict(rank=16, constraints="nonneg_l1", blocked=False,
          repr_policy="auto")),
    ("amazon", "amazon", "small",
     dict(rank=16, constraints="nonneg", blocked=True)),
)


def _fit(tensor, options, seed, threads):
    tick = time.perf_counter()
    result = repro.fit(tensor, max_outer_iterations=2, outer_tolerance=0.0,
                       seed=seed, threads=threads, **options)
    seconds = time.perf_counter() - tick
    records = result.trace.records
    return result, {
        "seconds": seconds,
        "admm_s": sum(r.admm_seconds for r in records),
        "mttkrp_s": sum(r.mttkrp_seconds for r in records),
    }


def _quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def test_admm_threads(results_dir):
    default = effective_threads(None)
    rows = []
    for name, dataset, preset, options in WORKLOADS:
        tensor = load_dataset(dataset, preset, seed=BENCH_SEED)[0]
        _fit(tensor, options, BENCH_SEED, None)  # warm-up: kernel, pools
        sides = {"one": [], "default": []}
        for pair in range(PAIRS):
            seed = BENCH_SEED + pair
            order = (("one", 1), ("default", None))
            if pair % 2:
                order = order[::-1]
            results = {}
            for side, threads in order:
                results[side], timing = _fit(tensor, options, seed, threads)
                sides[side].append(timing)
            one, other = results["one"], results["default"]
            for got, want in zip(other.model.factors, one.model.factors):
                assert got.tobytes() == want.tobytes(), (name, pair)
            assert [r.inner_iterations for r in other.trace.records] \
                == [r.inner_iterations for r in one.trace.records]
        ratios = [a["seconds"] / b["seconds"]
                  for a, b in zip(sides["one"], sides["default"])]
        row = {"workload": name, "dataset": dataset, "preset": preset,
               **options, "pairs": PAIRS,
               "pair_ratio": _quartiles(ratios)}
        for side, timings in sides.items():
            row[side] = {"seconds": _quartiles([t["seconds"]
                                                for t in timings]),
                         "admm_s": statistics.median(t["admm_s"]
                                                     for t in timings),
                         "mttkrp_s": statistics.median(t["mttkrp_s"]
                                                       for t in timings)}
        rows.append(row)

    lines = [f"Two-iteration fits, threads=1 vs the default ({default}), "
             f"{PAIRS} alternating pairs per workload, medians "
             f"[q1, q3] in ms",
             f"{'workload':>15} {'threads=1':>22} {'default':>22} "
             f"{'ratio':>6} {'admm 1/dflt':>13} {'mttkrp 1/dflt':>15}"]
    for row in rows:
        cells = []
        for side in ("one", "default"):
            q = row[side]["seconds"]
            cells.append(f"{1e3 * q['median']:7.1f} "
                         f"[{1e3 * q['q1']:5.1f},{1e3 * q['q3']:6.1f}]")
        lines.append(
            f"{row['workload']:>15} {cells[0]:>22} {cells[1]:>22} "
            f"{row['pair_ratio']['median']:6.2f} "
            f"{1e3 * row['one']['admm_s']:6.1f}/"
            f"{1e3 * row['default']['admm_s']:<6.1f} "
            f"{1e3 * row['one']['mttkrp_s']:7.1f}/"
            f"{1e3 * row['default']['mttkrp_s']:<7.1f}")
    save_artifact(results_dir, "admm_threads", "\n".join(lines))
    save_bench_json(results_dir, "admm_threads", {
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "default_threads": default,
        "rows": rows,
    })
