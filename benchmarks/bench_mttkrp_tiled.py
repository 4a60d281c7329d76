"""Slab-tiled MTTKRP sweep: slab size x threads, machine-readable output.

Times the engine's slab-tiled dense MTTKRP across a grid of
``slab_nnz_target`` and ``threads`` settings on one corpus, and records
the workspace allocation accounting that backs the zero-allocation
guarantee: after the warm-up sweep, repeated calls on the static pattern
must allocate **nothing** (child counts, accumulators, and outputs all
come from the pooled workspace).

The ``native_vs_numpy`` rows time the compiled root kernel
(:mod:`repro.kernels.native`, which serves every ALLMODE tree) against
the NumPy slab sweep on all four datasets at ranks 16 and 32: per-mode
and whole-sweep means at every slab target, serial, and the speedup of
the best native slab over the best NumPy slab.  Both sides must agree
bit for bit.

The ``isa_variants`` rows time every ISA variant of the compiled root
kernel that the CPU runs (:func:`repro.kernels.native.load_kernels`) on
the whole mode-rooted trees of the same four datasets at ranks 16 and
32: the median of :data:`ISA_CALLS` calls per mode, the variants
interleaved call by call, and the whole-sweep speedup over the baseline
variant.  Every variant must return the same bytes.

The ``thread_fanout`` rows time the in-core slab fan-out on the same
grid: the native sweep cut into :data:`FANOUT_SLABS` slabs on
:data:`FANOUT_THREADS` workers of the ``thread`` executor (one pool,
reused across calls) against the one-slab ``serial`` sweep.

Unlike the other benchmarks this one's primary artifact is JSON
(``BENCH_mttkrp_tiled.json``) so future PRs can diff the perf trajectory
programmatically; a human-readable table is saved alongside.
"""

from __future__ import annotations

import importlib
import time

import numpy as np
import pytest

from repro.kernels import MTTKRPEngine, native
from repro.tensor.csf import AllModeCSF

from conftest import BENCH_SEED, DATASET_NAMES, save_artifact, save_bench_json

RANK = 16
ROUNDS = 5
#: One-slab limit, the library default, and two finer decompositions.
SLAB_TARGETS = (10**9, 65536, 8192, 1024)
THREADS = (1, 2, 4)
#: Ranks of the native-vs-NumPy rows.
NATIVE_RANKS = (16, 32)
#: Calls per mode and variant of the ISA rows (the median is reported).
ISA_CALLS = 15
#: Slabs per tree and workers of the thread fan-out rows.
FANOUT_SLABS = 8
FANOUT_THREADS = 2
#: The module whose ``root_kernel`` lookup the NumPy rows switch off.
DISPATCH = importlib.import_module("repro.kernels.dispatch")


def _engine_allocations(engine: MTTKRPEngine) -> tuple[int, int]:
    """(allocations, bytes) across every workspace the engine built."""
    workspaces = engine._workspaces.values()
    return (sum(ws.allocations for ws in workspaces),
            sum(ws.bytes_allocated for ws in workspaces))


def _sweep_config(tensor, factors, slab_target: int,
                  threads: int, executor: str | None = None) -> dict:
    engine = MTTKRPEngine(tensor, slab_nnz_target=slab_target,
                          threads=threads, executor=executor)
    nmodes = tensor.nmodes

    for mode in range(nmodes):  # warm-up: builds trees, tilings, buffers
        engine.mttkrp(factors, mode)
    warm_allocs, warm_bytes = _engine_allocations(engine)
    warm_calls = len(engine.call_log)

    tick = time.perf_counter()
    for _ in range(ROUNDS):
        for mode in range(nmodes):
            engine.mttkrp(factors, mode)
    total_seconds = time.perf_counter() - tick

    steady = engine.call_log[warm_calls:]
    steady_allocs, steady_bytes = _engine_allocations(engine)
    per_mode = {
        str(mode): float(np.mean([s.seconds for s in steady
                                  if s.mode == mode]))
        for mode in range(nmodes)
    }
    return {
        "slab_nnz_target": slab_target,
        "threads": threads,
        "slab_counts": [engine.tiling(m).slab_count
                        for m in range(nmodes)],
        "warmup": {"allocations": warm_allocs,
                   "bytes_allocated": warm_bytes},
        "steady": {
            "new_allocations": steady_allocs - warm_allocs,
            "new_bytes_allocated": steady_bytes - warm_bytes,
            "per_call_bytes": [s.bytes_allocated for s in steady],
        },
        "per_mode_mean_seconds": per_mode,
        "mean_sweep_seconds": total_seconds / ROUNDS,
    }


def _kernel_rows(tensor, factors) -> dict:
    """Serial sweeps at every slab target: per-mode and sweep means."""
    rows = []
    outputs = None
    for target in SLAB_TARGETS:
        cfg = _sweep_config(tensor, factors, target, threads=1)
        engine = MTTKRPEngine(tensor, slab_nnz_target=target, threads=1)
        outs = [engine.mttkrp(factors, m).tobytes()
                for m in range(tensor.nmodes)]
        assert outputs is None or outs == outputs, "slab size moved bits"
        outputs = outs
        rows.append({"slab_nnz_target": target,
                     "per_mode_mean_seconds": cfg["per_mode_mean_seconds"],
                     "mean_sweep_seconds": cfg["mean_sweep_seconds"]})
    best = min(rows, key=lambda r: r["mean_sweep_seconds"])
    return {"rows": rows, "best": best, "outputs": outputs}


def _native_vs_numpy(datasets, monkeypatch) -> list[dict]:
    entries = []
    for name in DATASET_NAMES:
        tensor = datasets[name]
        for rank in NATIVE_RANKS:
            rng = np.random.default_rng(BENCH_SEED)
            factors = [rng.uniform(0.0, 1.0, (s, rank))
                       for s in tensor.shape]
            fast = _kernel_rows(tensor, factors)
            with monkeypatch.context() as patch:
                patch.setattr(DISPATCH, "root_kernel", lambda: None)
                slow = _kernel_rows(tensor, factors)
            assert fast.pop("outputs") == slow.pop("outputs"), \
                f"native kernel differs from NumPy on {name}"
            entries.append({
                "dataset": f"{name}/small", "nnz": tensor.nnz,
                "rank": rank, "native": fast, "numpy": slow,
                "speedup_best_sweep": (slow["best"]["mean_sweep_seconds"]
                                       / fast["best"]["mean_sweep_seconds"]),
            })
    return entries


def _isa_variants(datasets) -> list[dict]:
    """Every variant on whole trees: median ms per call, byte-equal."""
    kernels = native.load_kernels()
    entries = []
    for name in DATASET_NAMES:
        tensor = datasets[name]
        trees = AllModeCSF(tensor)
        for rank in NATIVE_RANKS:
            rng = np.random.default_rng(BENCH_SEED)
            factors = [rng.uniform(0.0, 1.0, (s, rank))
                       for s in tensor.shape]
            ms = {isa: [] for isa in kernels}
            for mode in range(tensor.nmodes):
                tree = trees.csf(mode)
                outs, runs = {}, {}
                for isa, kernel in kernels.items():
                    outs[isa] = np.zeros((tensor.shape[mode], rank))
                    runs[isa] = kernel.bind(tree.mode_order, factors,
                                            outs[isa])
                    runs[isa](tree)  # warm-up
                seconds = {isa: [] for isa in kernels}
                for _ in range(ISA_CALLS):
                    for isa, run in runs.items():
                        tick = time.perf_counter()
                        run(tree)
                        seconds[isa].append(time.perf_counter() - tick)
                want = outs["baseline"].tobytes()
                assert all(out.tobytes() == want for out in outs.values()), \
                    f"ISA variants differ on {name} mode {mode}"
                for isa in kernels:
                    ms[isa].append(float(np.median(seconds[isa])) * 1e3)
            entries.append({
                "dataset": f"{name}/small", "nnz": tensor.nnz,
                "rank": rank, "median_ms_per_call": ms,
                "sweep_speedup_vs_baseline": {
                    isa: sum(ms["baseline"]) / sum(ms[isa])
                    for isa in kernels},
            })
    return entries


def _thread_fanout(datasets) -> list[dict]:
    """Native sweeps: FANOUT_SLABS slabs on a reused thread pool vs one
    slab inline."""
    entries = []
    for name in DATASET_NAMES:
        tensor = datasets[name]
        target = -(-tensor.nnz // FANOUT_SLABS)
        for rank in NATIVE_RANKS:
            rng = np.random.default_rng(BENCH_SEED)
            factors = [rng.uniform(0.0, 1.0, (s, rank))
                       for s in tensor.shape]
            serial = _sweep_config(tensor, factors, 10**9, 1, "serial")
            threaded = _sweep_config(tensor, factors, target,
                                     FANOUT_THREADS, "thread")
            entries.append({
                "dataset": f"{name}/small", "nnz": tensor.nnz,
                "rank": rank, "slab_counts": threaded["slab_counts"],
                "serial_one_slab_sweep_seconds":
                    serial["mean_sweep_seconds"],
                "threaded_sweep_seconds": threaded["mean_sweep_seconds"],
                "speedup": (serial["mean_sweep_seconds"]
                            / threaded["mean_sweep_seconds"]),
            })
    return entries


@pytest.fixture(scope="module")
def tiled_setup(small_datasets):
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    return tensor, factors


def test_bench_mttkrp_tiled(tiled_setup, small_datasets, results_dir,
                            monkeypatch):
    tensor, factors = tiled_setup
    configs = [_sweep_config(tensor, factors, target, threads)
               for target in SLAB_TARGETS
               for threads in THREADS]

    # The zero-allocation guarantee is part of the benchmark contract:
    # fail loudly if any steady-state call allocated.
    for cfg in configs:
        assert cfg["steady"]["new_allocations"] == 0, cfg
        assert cfg["steady"]["new_bytes_allocated"] == 0, cfg

    native_rows = native.root_kernel() is not None
    payload = {
        "dataset": "reddit/small",
        "shape": list(tensor.shape),
        "nnz": tensor.nnz,
        "rank": RANK,
        "rounds": ROUNDS,
        "configs": configs,
        # Empty where the kernel cannot be built: nothing to compare.
        "native_vs_numpy": (_native_vs_numpy(small_datasets, monkeypatch)
                            if native_rows else []),
        "isa_calls": ISA_CALLS,
        "isa_variants": (_isa_variants(small_datasets)
                         if native_rows else []),
        "fanout_slabs": FANOUT_SLABS,
        "fanout_threads": FANOUT_THREADS,
        "thread_fanout": (_thread_fanout(small_datasets)
                          if native_rows else []),
    }
    json_path = save_bench_json(results_dir, "mttkrp_tiled", payload)

    lines = ["MTTKRP slab tiling sweep (reddit/small, "
             f"nnz={tensor.nnz}, rank={RANK})",
             f"{'slab target':>12} {'threads':>8} {'slabs':>6} "
             f"{'sweep ms':>10} {'steady allocs':>14}"]
    for cfg in configs:
        lines.append(
            f"{cfg['slab_nnz_target']:>12} {cfg['threads']:>8} "
            f"{max(cfg['slab_counts']):>6} "
            f"{cfg['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{cfg['steady']['new_allocations']:>14}")
    lines += ["", "Native root kernel vs NumPy slab sweep (serial, best "
              "slab target each)",
              f"{'dataset':>15} {'rank':>5} {'numpy ms':>10} "
              f"{'native ms':>10} {'speedup':>8}"]
    for entry in payload["native_vs_numpy"]:
        lines.append(
            f"{entry['dataset']:>15} {entry['rank']:>5} "
            f"{entry['numpy']['best']['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{entry['native']['best']['mean_sweep_seconds'] * 1e3:>10.2f} "
            f"{entry['speedup_best_sweep']:>8.1f}")
    lines += ["", "ISA variants of the native kernel, whole trees "
              f"(median of {ISA_CALLS} calls, ms per mode)",
              f"{'dataset':>15} {'rank':>5} {'variant':>9} "
              f"{'ms per mode':>24} {'speedup':>8}"]
    for entry in payload["isa_variants"]:
        for isa, ms in entry["median_ms_per_call"].items():
            per_mode = " / ".join(f"{m:.1f}" for m in ms)
            lines.append(
                f"{entry['dataset']:>15} {entry['rank']:>5} {isa:>9} "
                f"{per_mode:>24} "
                f"{entry['sweep_speedup_vs_baseline'][isa]:>8.2f}")
    lines += ["", f"Native sweep, {FANOUT_SLABS} slabs on "
              f"{FANOUT_THREADS} threads (reused pool) vs 1 slab serial",
              f"{'dataset':>15} {'rank':>5} {'serial ms':>10} "
              f"{'threads ms':>11} {'speedup':>8}"]
    for entry in payload["thread_fanout"]:
        lines.append(
            f"{entry['dataset']:>15} {entry['rank']:>5} "
            f"{entry['serial_one_slab_sweep_seconds'] * 1e3:>10.2f} "
            f"{entry['threaded_sweep_seconds'] * 1e3:>11.2f} "
            f"{entry['speedup']:>8.2f}")
    lines.append(f"[json saved to {json_path}]")
    save_artifact(results_dir, "bench_mttkrp_tiled", "\n".join(lines))
