"""Ablation A1 — block size trade-off (Section IV-B).

The paper: "A natural first choice is B = I ... Unfortunately, other
overheads such as function calls ... are exaggerated ... We empirically
found that blocks of 50 rows offered a good trade-off."  This bench sweeps
block sizes on one skewed corpus and reports both real time-to-error and
simulated full-scale behaviour (the per-call overhead shows up as the
dynamic-chunk cost in the machine model).
"""

from __future__ import annotations

import pytest

from repro import AOADMMOptions, fit_aoadmm, init_factors
from repro.bench import format_table
from repro.observability import Stopwatch

from conftest import BENCH_SEED, save_artifact

BLOCK_SIZES = (1, 10, 50, 250, 10**9)
RANK = 16
OUTER = 12


def run_block_size_sweep(small_datasets) -> tuple[str, dict]:
    tensor = small_datasets["reddit"]
    init = init_factors(tensor, RANK, "uniform", seed=BENCH_SEED)
    rows = []
    stats = {}
    for block in BLOCK_SIZES:
        with Stopwatch() as t:
            result = fit_aoadmm(
                tensor,
                AOADMMOptions(rank=RANK, constraints="nonneg",
                              blocked=True, block_size=block,
                              seed=BENCH_SEED, max_outer_iterations=OUTER,
                              outer_tolerance=0.0),
                initial_factors=init)
        label = "unblocked" if block >= tensor.shape[0] else str(block)
        stats[block] = {"seconds": t.seconds,
                        "error": result.relative_error}
        rows.append({
            "block size": label,
            "total (s)": f"{t.seconds:.2f}",
            "final error": f"{result.relative_error:.5f}",
            "mean inner iters": f"{sum(sum(r.inner_iterations) for r in result.trace.records) / (3 * OUTER):.1f}",
        })
    text = format_table(
        rows, title="Ablation: block-size trade-off on Reddit "
                    f"(rank {RANK}, {OUTER} outer iterations)")
    return text, stats


def test_ablation_block_size(benchmark, small_datasets, results_dir):
    text, stats = benchmark.pedantic(
        run_block_size_sweep, args=(small_datasets,), rounds=1,
        iterations=1)
    save_artifact(results_dir, "ablation_block_size", text)
    # Per-row blocks pay heavy per-call overhead (the paper's motivation
    # for not using B = I).
    assert stats[1]["seconds"] > stats[50]["seconds"]
    # All block sizes converge to comparable solutions.
    errs = [s["error"] for s in stats.values()]
    assert max(errs) - min(errs) < 0.05
