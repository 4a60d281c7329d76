"""Out-of-core MTTKRP: streamed store slabs vs. in-core slabs.

Times full MTTKRP sweeps through the sharded on-disk store at a ladder
of ``max_bytes_in_core`` budgets — unbounded (everything stays resident
after the first sweep), half, a quarter, and a twentieth of the store's
full footprint — against the engine's in-core slabs of the same tensor,
and records the slab-cache traffic (loads, hits, evictions, peak
resident bytes) that explains each overhead number.

The primary artifact is JSON (``BENCH_ooc_mttkrp.json``) so future PRs
can diff the streaming-overhead trajectory programmatically; a
human-readable table is saved alongside.  Every streamed result is also
checked **bitwise** against the in-core sweep — the overhead being
measured must never buy a different answer.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import MTTKRPEngine
from repro.tensor import ShardedTensorStore

from conftest import BENCH_SEED, save_artifact

RANK = 16
ROUNDS = 5
SLAB_NNZ_TARGET = 8192
#: Byte budgets as fractions of the store's full slab footprint;
#: ``None`` = unbounded (resident after warm-up, the best case).
BUDGET_FRACTIONS = (None, 0.5, 0.25, 0.05)


def _time_sweeps(engine, factors, nmodes: int) -> tuple[float, list]:
    for mode in range(nmodes):  # warm-up: buffers, trees / first loads
        engine.mttkrp(factors, mode)
    tick = time.perf_counter()
    for _ in range(ROUNDS):
        for mode in range(nmodes):
            engine.mttkrp(factors, mode)
    seconds = (time.perf_counter() - tick) / ROUNDS
    reference = [np.array(engine.mttkrp(factors, m), copy=True)
                 for m in range(nmodes)]
    return seconds, reference


@pytest.fixture(scope="module")
def ooc_setup(small_datasets, tmp_path_factory):
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    store = ShardedTensorStore.create(
        tensor, tmp_path_factory.mktemp("ooc") / "store",
        slab_nnz_target=SLAB_NNZ_TARGET)
    return tensor, factors, store


def test_bench_ooc_mttkrp(ooc_setup, results_dir):
    tensor, factors, store = ooc_setup
    nmodes = tensor.nmodes

    in_core = MTTKRPEngine(tensor, slab_nnz_target=SLAB_NNZ_TARGET)
    in_core_seconds, reference = _time_sweeps(in_core, factors, nmodes)
    in_core.close()

    footprint = store.storage_bytes()
    configs = []
    for fraction in BUDGET_FRACTIONS:
        budget = None if fraction is None else max(1, int(footprint
                                                          * fraction))
        engine = MTTKRPEngine(store, max_bytes_in_core=budget)
        seconds, streamed = _time_sweeps(engine, factors, nmodes)
        for mode in range(nmodes):  # overhead must not change one bit
            np.testing.assert_array_equal(streamed[mode], reference[mode])
        stats = engine.cache.stats()
        engine.close()
        configs.append({
            "budget_fraction": fraction,
            "max_bytes_in_core": budget,
            "mean_sweep_seconds": seconds,
            "overhead_vs_in_core": seconds / in_core_seconds,
            "cache": {
                "loads": stats["loads"],
                "hits": stats["hits"],
                "evictions": stats["evictions"],
                "peak_resident_bytes": stats["peak_resident_bytes"],
            },
        })

    # Sanity: tight budgets really were under pressure, the unbounded
    # run really was not.
    assert configs[0]["cache"]["evictions"] == 0
    assert configs[-1]["cache"]["evictions"] > 0
    assert configs[-1]["cache"]["peak_resident_bytes"] < footprint

    payload = {
        "benchmark": "ooc_mttkrp",
        "dataset": "reddit/small",
        "shape": list(tensor.shape),
        "nnz": tensor.nnz,
        "rank": RANK,
        "rounds": ROUNDS,
        "slab_nnz_target": SLAB_NNZ_TARGET,
        "store_bytes": footprint,
        "slab_counts": [store.slab_count(m) for m in range(nmodes)],
        "in_core_mean_sweep_seconds": in_core_seconds,
        "configs": configs,
    }
    json_path = results_dir / "BENCH_ooc_mttkrp.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["Out-of-core streaming MTTKRP overhead (reddit/small, "
             f"nnz={tensor.nnz}, rank={RANK}, "
             f"store={footprint / 1e6:.1f} MB)",
             f"{'budget':>12} {'sweep ms':>10} {'overhead':>9} "
             f"{'loads':>6} {'hits':>6} {'evicts':>7} {'peak MB':>8}"]
    lines.append(f"{'in-core':>12} {in_core_seconds * 1e3:>10.2f} "
                 f"{'1.00x':>9} {'-':>6} {'-':>6} {'-':>7} {'-':>8}")
    for cfg in configs:
        label = ("none" if cfg["budget_fraction"] is None
                 else f"{cfg['budget_fraction']:.0%}")
        cache = cfg["cache"]
        lines.append(
            f"{label:>12} {cfg['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{cfg['overhead_vs_in_core']:>8.2f}x "
            f"{cache['loads']:>6} {cache['hits']:>6} "
            f"{cache['evictions']:>7} "
            f"{cache['peak_resident_bytes'] / 1e6:>8.1f}")
    save_artifact(results_dir, "bench_ooc_mttkrp", "\n".join(lines))
