"""Ablation A5 — CSF allocation policy (SPLATT's design space).

ALLMODE (one tree per mode; every MTTKRP runs the fast root kernel)
versus ONEMODE (a single tree; other modes use the internal/leaf
kernels, which need scatter-adds).  Memory versus time — the trade-off
SPLATT exposes as ``ALLMODE``/``ONEMODE`` and that this library mirrors
as ``MTTKRPEngine(csf_allocation=...)``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table
from repro.kernels.dispatch import MTTKRPEngine
from repro.observability import Stopwatch

from conftest import BENCH_SEED, save_artifact

RANK = 32
REPEATS = 2


def run_csf_allocation(small_datasets) -> tuple[str, dict]:
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]

    rows = []
    stats = {}
    for policy in ("all", "one"):
        engine = MTTKRPEngine(tensor, csf_allocation=policy)
        # Warm every tree the policy will use.
        for mode in range(3):
            engine.mttkrp(factors, mode)
        with Stopwatch() as t:
            for _ in range(REPEATS):
                for mode in range(3):
                    engine.mttkrp(factors, mode)
        seconds = t.seconds / REPEATS
        mem = engine.trees.storage_bytes()
        stats[policy] = {"seconds": seconds, "bytes": mem}
        rows.append({
            "policy": {"all": "ALLMODE (3 trees)",
                       "one": "ONEMODE (1 tree)"}[policy],
            "all-modes MTTKRP (ms)": f"{1000 * seconds:.1f}",
            "CSF memory (MB)": f"{mem / 2**20:.1f}",
        })
    text = format_table(
        rows, title=f"Ablation: CSF allocation policy on Reddit "
                    f"(rank {RANK}, all three mode MTTKRPs)")
    return text, stats


def test_ablation_csf_allocation(benchmark, small_datasets, results_dir):
    text, stats = benchmark.pedantic(
        run_csf_allocation, args=(small_datasets,), rounds=1, iterations=1)
    save_artifact(results_dir, "ablation_csf_allocation", text)
    # ONEMODE saves memory ...
    assert stats["one"]["bytes"] < stats["all"]["bytes"]
    # ... and ALLMODE is at least competitive in time (root kernels
    # avoid the scatter-add of the internal/leaf kernels).
    assert stats["all"]["seconds"] < stats["one"]["seconds"] * 1.5
