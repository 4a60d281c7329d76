"""Executor sweep for the slab-tiled MTTKRP: serial vs thread vs process.

``BENCH_mttkrp_tiled.json`` documented the GIL wall: at 139 slabs the
thread pool *regresses* (94.7 ms at 1 thread vs 133.6 ms at 4), because
the slab kernels are small-op Python/NumPy scatter loops that never let
go of the GIL.  This sweep times the same tiled MTTKRP under all three
execution backends (``serial``, ``thread``, ``process``) at 1/2/4
workers and records what each costs:

* per-call latency (per mode and whole-sweep means),
* speedup over the serial baseline,
* the process executor's fixed costs — pool spawn seconds, bytes mapped
  into shared memory, first-call (cold) latency vs steady-state — so the
  amortization story is visible in the artifact, not just claimed.

The JSON artifact is written to ``benchmarks/results/`` like every
other benchmark (see ``benchmarks/README.md``).  Bit-identity across
executors is asserted inline — a benchmark that silently computed different numbers
would be measuring the wrong thing.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.kernels import MTTKRPEngine
from repro.parallel.executor import ProcessExecutor

from conftest import BENCH_SEED, save_artifact

RANK = 16
ROUNDS = 5
#: The slab decomposition where the thread pool regressed (139 slabs).
SLAB_TARGET = 1024
#: (executor, workers) grid; serial has no worker knob.
CONFIGS = (("serial", 1),
           ("thread", 1), ("thread", 2), ("thread", 4),
           ("process", 1), ("process", 2), ("process", 4))


def _sweep_config(tensor, factors, executor_name: str,
                  workers: int) -> tuple[dict, list[np.ndarray]]:
    nmodes = tensor.nmodes
    # A private ProcessExecutor per config isolates the pool so spawn
    # cost is measured per worker count, not amortized across configs.
    executor = (ProcessExecutor(max_workers=workers)
                if executor_name == "process" else executor_name)
    engine = MTTKRPEngine(tensor, slab_nnz_target=SLAB_TARGET,
                          threads=workers, executor=executor)
    try:
        cold_tick = time.perf_counter()
        outputs = [np.array(engine.mttkrp(factors, mode), copy=True)
                   for mode in range(nmodes)]
        cold_sweep_seconds = time.perf_counter() - cold_tick
        warm_calls = len(engine.call_log)

        tick = time.perf_counter()
        for _ in range(ROUNDS):
            for mode in range(nmodes):
                engine.mttkrp(factors, mode)
        total_seconds = time.perf_counter() - tick

        steady = engine.call_log[warm_calls:]
        per_mode = {
            str(mode): float(np.mean([s.seconds for s in steady
                                      if s.mode == mode]))
            for mode in range(nmodes)
        }
        arena = engine._arena
        pool = executor._pool if isinstance(executor, ProcessExecutor) \
            else None
        shm_bytes = arena.bytes_mapped if arena is not None else 0
        spawn_seconds = pool.spawn_seconds if pool is not None else 0.0
        slab_counts = [engine.tiling(m).slab_count
                       for m in range(nmodes)]
        close_tick = time.perf_counter()
        engine.close()
        if isinstance(executor, ProcessExecutor):
            executor.close()
        teardown_seconds = time.perf_counter() - close_tick
        config = {
            "executor": executor_name,
            "workers": workers,
            "slab_counts": slab_counts,
            "cold_sweep_seconds": cold_sweep_seconds,
            "mean_sweep_seconds": total_seconds / ROUNDS,
            "per_mode_mean_seconds": per_mode,
            "overhead": {
                "pool_spawn_seconds": spawn_seconds,
                "shm_bytes_mapped": shm_bytes,
                "teardown_seconds": teardown_seconds,
            },
        }
        return config, outputs
    finally:
        engine.close()
        if isinstance(executor, ProcessExecutor):
            executor.close()


@pytest.fixture(scope="module")
def executor_setup(small_datasets):
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    return tensor, factors


def test_bench_mttkrp_executor(executor_setup, results_dir):
    tensor, factors = executor_setup
    configs: list[dict] = []
    baseline_outputs: list[np.ndarray] | None = None
    serial_mean = None
    for executor_name, workers in CONFIGS:
        cfg, outputs = _sweep_config(tensor, factors, executor_name,
                                     workers)
        if baseline_outputs is None:
            baseline_outputs = outputs
            serial_mean = cfg["mean_sweep_seconds"]
        else:
            # Bit-identity is the contract the whole executor layer
            # rests on; a benchmark of divergent results is meaningless.
            for base, other in zip(baseline_outputs, outputs):
                np.testing.assert_array_equal(base, other)
        cfg["speedup_over_serial"] = serial_mean / cfg["mean_sweep_seconds"]
        configs.append(cfg)

    payload = {
        "benchmark": "mttkrp_executor",
        "dataset": "reddit/small",
        "shape": list(tensor.shape),
        "nnz": tensor.nnz,
        "rank": RANK,
        "rounds": ROUNDS,
        "slab_nnz_target": SLAB_TARGET,
        "bit_identical_across_executors": True,
        "configs": configs,
    }
    json_path = results_dir / "BENCH_mttkrp_executor.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    lines = ["MTTKRP executor sweep (reddit/small, "
             f"nnz={tensor.nnz}, rank={RANK}, "
             f"slab target {SLAB_TARGET})",
             f"{'executor':>9} {'workers':>8} {'sweep ms':>10} "
             f"{'speedup':>8} {'spawn ms':>9} {'shm MiB':>8}"]
    for cfg in configs:
        over = cfg["overhead"]
        lines.append(
            f"{cfg['executor']:>9} {cfg['workers']:>8} "
            f"{cfg['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{cfg['speedup_over_serial']:>8.2f} "
            f"{over['pool_spawn_seconds'] * 1e3:>9.2f} "
            f"{over['shm_bytes_mapped'] / 2**20:>8.2f}")
    lines.append(f"[json saved to {json_path}]")
    save_artifact(results_dir, "bench_mttkrp_executor", "\n".join(lines))
