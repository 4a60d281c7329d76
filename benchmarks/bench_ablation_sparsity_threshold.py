"""Ablation A4 — the 20% sparsification threshold (Section V-E).

"We empirically determined that a factor can be gainfully treated as
sparse when its density falls below 20%."  This bench measures the real
sparse-kernel speedup over dense as a function of factor density, locating
the break-even point on our substrate, for both MTTKRP paths:

* the NumPy path — the monolithic ``reduceat`` sweep against the SciPy
  leaf-aggregator product of :func:`mttkrp_csf_root_repr`;
* the compiled kernel of :mod:`repro.kernels.native` — its dense sweep
  against its sparse leaf stage with CSR and CSR-H deep factors (what
  :class:`~repro.kernels.dispatch.MTTKRPEngine` runs).

The compiled rows also go to ``results/BENCH_sparse_leaf.json``: per
density and representation, the SciPy path against the compiled leaf
stage, whose bytes are asserted equal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import format_table
from repro.kernels import native
from repro.kernels.mttkrp_sparse import leaf_aggregator, mttkrp_csf_root_repr
from repro.observability import Stopwatch
from repro.sparse import CSRMatrix, HybridFactor
from repro.tensor.csf import AllModeCSF

from conftest import BENCH_SEED, save_artifact, save_bench_json

RANK = 32
DENSITIES = (0.01, 0.05, 0.10, 0.20, 0.40, 0.80)
REPEATS = 3


def _seconds(call) -> float:
    """Mean seconds of *call* over :data:`REPEATS` runs."""
    with Stopwatch() as t:
        for _ in range(REPEATS):
            call()
    return t.seconds / REPEATS


def _native(kernel, csf, factors, leaf=None) -> np.ndarray:
    out = np.zeros((csf.shape[csf.mode_order[0]], RANK))
    kernel.bind(csf.mode_order, factors, out, leaf=leaf)(csf)
    return out


def run_threshold_sweep(small_datasets) -> tuple[str, dict, list]:
    tensor = small_datasets["reddit"]
    rng = np.random.default_rng(BENCH_SEED)
    factors = [rng.uniform(0.0, 1.0, (s, RANK)) for s in tensor.shape]
    csf = AllModeCSF(tensor).csf(0)
    leaf = csf.mode_order[-1]
    aggregator = leaf_aggregator(csf)
    kernel = native.root_kernel()

    # Dense baselines.
    dense_seconds = _seconds(
        lambda: mttkrp_csf_root_repr(csf, factors, None))
    dense_native = (_seconds(lambda: _native(kernel, csf, factors))
                    if kernel is not None else None)

    rows = []
    speedups = {}
    bench_rows = []
    for density in DENSITIES:
        sparse = factors[leaf].copy()
        sparse[rng.uniform(size=sparse.shape) > density] = 0.0
        fs = list(factors)
        fs[leaf] = sparse
        with Stopwatch() as build_t:
            rep = CSRMatrix.from_dense(sparse)
        seconds = _seconds(
            lambda: mttkrp_csf_root_repr(csf, fs, rep, aggregator))
        speedups[density] = dense_seconds / seconds
        row = {
            "factor density": f"{100 * density:.0f}%",
            "CSR SciPy (ms)": f"{1000 * seconds:.1f}",
            "dense NumPy (ms)": f"{1000 * dense_seconds:.1f}",
            "speedup": f"{dense_seconds / seconds:.2f}x",
            "CSR build (ms)": f"{1000 * build_t.seconds:.1f}",
        }
        if kernel is not None:
            times = {}
            for name, leaf_rep in (("csr", rep),
                                   ("csr-h", HybridFactor(sparse))):
                scipy_s = (seconds if name == "csr" else _seconds(
                    lambda: mttkrp_csf_root_repr(csf, fs, leaf_rep,
                                                 aggregator)))
                times[name] = _seconds(
                    lambda: _native(kernel, csf, fs, leaf_rep))
                want = mttkrp_csf_root_repr(csf, fs, leaf_rep, aggregator)
                got = _native(kernel, csf, fs, leaf_rep)
                assert got.tobytes() == want.tobytes(), (density, name)
                bench_rows.append({
                    "density": density, "representation": name,
                    "scipy_ms": round(1000 * scipy_s, 2),
                    "native_ms": round(1000 * times[name], 2),
                    "dense_native_ms": round(1000 * dense_native, 2),
                    "bytes_equal": True})
            row.update({
                "dense native (ms)": f"{1000 * dense_native:.1f}",
                "CSR native (ms)": f"{1000 * times['csr']:.1f}",
                "CSR-H native (ms)": f"{1000 * times['csr-h']:.1f}",
                "native CSR speedup":
                    f"{dense_native / times['csr']:.2f}x",
            })
        rows.append(row)
    text = format_table(
        rows, title="Ablation: sparse-kernel speedup vs factor density "
                    "(Reddit, mode 0, rank 32) — the paper sparsifies "
                    "below 20%")
    return text, speedups, bench_rows


def test_ablation_sparsity_threshold(benchmark, small_datasets,
                                     results_dir):
    text, speedups, bench_rows = benchmark.pedantic(
        run_threshold_sweep, args=(small_datasets,), rounds=1, iterations=1)
    save_artifact(results_dir, "ablation_sparsity_threshold", text)
    if bench_rows:
        save_bench_json(results_dir, "sparse_leaf", {
            "workload": "reddit small, root mode 0, rank 32, uniform "
                        "random deep-factor sparsity; mean of "
                        f"{REPEATS} monolithic calls",
            "rows": bench_rows})
    # Sparse kernels clearly win in the paper's below-20% regime ...
    assert speedups[0.05] > 1.2
    # ... and the advantage shrinks monotonically-ish as density grows.
    assert speedups[0.01] > speedups[0.80]
