"""Table II — effect of sparse factor data structures on CPD runtime.

L1-regularized factorizations of the Reddit- and Amazon-like corpora at
three ranks, with the deep MTTKRP factor stored DENSE, CSR, or hybrid
(CSR-H).  As in the paper, the *total* time-to-solution is reported (all
runs take the same fixed iteration count from identical seeds, so times
are comparable), alongside the final density of the longest factor.

Expected shape: once the factors go sparse, CSR beats DENSE (paper:
1.1-2.3x).  A second measured table isolates the MTTKRP seconds inside
the same fits (the engine's ``call_log``), where the CSR/CSR-H leaf
stage of the compiled kernel is the only difference between the
policies; the fits' totals also carry inner-ADMM time, which differs
between policies because their summation orders differ.  The paper's
CSR-H-vs-CSR crossover is driven by memory latency hiding; the machine
cost model (third table) reproduces the latency-driven Reddit/Amazon
crossover.
"""

from __future__ import annotations

import pytest

from repro import AOADMMOptions, fit_aoadmm, init_factors
from repro.bench import format_table
from repro.constraints import NonNegativeL1
from repro.kernels.dispatch import MTTKRPEngine
from repro.machine import (
    FactorizationWorkload,
    PAPER_MACHINE,
    factorization_time,
)
from repro.observability import Stopwatch

from conftest import BENCH_SEED, save_artifact

DATASETS = ("reddit", "amazon")
RANKS = (16, 32, 64)        # scaled-down analog of the paper's 50/100/200
L1_WEIGHT = 0.05            # the paper's 1e-1 ||.||_1, adjusted for scale
OUTER_ITERS = 10
POLICIES = (("DENSE", "dense"), ("CSR", "csr"), ("CSR-H", "hybrid"))


def run_table2_measured(small_datasets) -> tuple[str, dict]:
    rows = []
    kernel_rows = []
    times: dict[tuple, float] = {}
    for name in DATASETS:
        tensor = small_datasets[name]
        longest_mode = int(max(range(3), key=lambda m: tensor.shape[m]))
        for rank in RANKS:
            init = init_factors(tensor, rank, "uniform", seed=BENCH_SEED)
            row = {"Dataset": name.capitalize(), "F": rank}
            kernel_row = dict(row)
            for label, policy in POLICIES:
                engine = MTTKRPEngine(
                    tensor, repr_policy=policy, tol=0.0)
                engine.trees.build_all()
                with Stopwatch() as t:
                    result = fit_aoadmm(
                        tensor,
                        AOADMMOptions(rank=rank,
                                      constraints=NonNegativeL1(L1_WEIGHT),
                                      seed=BENCH_SEED,
                                      max_outer_iterations=OUTER_ITERS,
                                      outer_tolerance=0.0,
                                      repr_policy=policy),
                        initial_factors=init, engine=engine)
                times[(name, rank, label)] = t.seconds
                row[label + " (s)"] = f"{t.seconds:.2f}"
                mttkrp_s = sum(c.seconds for c in engine.call_log)
                kernel_row[label + " MTTKRP (s)"] = f"{mttkrp_s:.3f}"
                if label == "DENSE":
                    density = result.model.factor_density(longest_mode)
                    row["density"] = f"{100 * density:.1f}%"
            rows.append(row)
            kernel_rows.append(kernel_row)
    text = format_table(
        rows, title=f"Table II (measured): total CPD seconds, "
                    f"{OUTER_ITERS} outer iterations, "
                    f"r = {L1_WEIGHT}*||.||_1 on all factors")
    text += "\n\n" + format_table(
        kernel_rows, title="Table II (measured): MTTKRP seconds inside "
                           "the same fits (sum of the engine's call_log)")
    return text, times


#: Full-scale hybrid column profiles: Reddit's word marginals are highly
#: concentrated (a tiny dense prefix captures most stored entries), while
#: Amazon's much longer mode has a flat column-density distribution, so
#: "denser than the average column" sweeps in about half the columns —
#: a wide prefix whose stored zeros erase the latency win.
HYBRID_PROFILES = {"reddit": (0.02, 0.04, 0.70),
                   "amazon": (0.03, 0.50, 0.55)}


def run_table2_modeled() -> str:
    """Full-scale cost model: reproduces the paper's CSR-H crossover."""
    rows = []
    for name, (density, dfrac, share) in HYBRID_PROFILES.items():
        workload = FactorizationWorkload.from_spec(name, rank=50)
        reps = {
            "DENSE": dict(leaf_rep="dense", leaf_density=1.0),
            "CSR": dict(leaf_rep="csr", leaf_density=density),
            "CSR-H": dict(leaf_rep="csr-h", leaf_density=density,
                          dense_col_frac=dfrac, dense_col_share=share),
        }
        row = {"Dataset": name.capitalize()}
        for label, kwargs in reps.items():
            sim = factorization_time(workload, threads=20,
                                     machine=PAPER_MACHINE,
                                     blocked=True, **kwargs)
            row[label + " (model s/iter)"] = f"{sim.total_seconds:.2f}"
        rows.append(row)
    return format_table(
        rows, title="Table II (full-scale machine model, rank 50, "
                    "20 threads): CSR-H wins on Reddit, loses on Amazon")


def test_table2_sparse_mttkrp(benchmark, small_datasets, results_dir):
    (text, times) = benchmark.pedantic(
        run_table2_measured, args=(small_datasets,), rounds=1, iterations=1)
    modeled = run_table2_modeled()
    save_artifact(results_dir, "table2_sparse_mttkrp",
                  text + "\n\n" + modeled)
    # Paper shape: exploiting sparsity beats DENSE at every rank.
    for name in DATASETS:
        for rank in RANKS:
            assert (times[(name, rank, "CSR")]
                    < times[(name, rank, "DENSE")]), (name, rank)


def test_table2_modeled_crossover(benchmark, results_dir):
    """The latency-aware model reproduces the paper's CSR-H crossover."""
    from repro.machine import kernel_time

    benchmark.pedantic(run_table2_modeled, rounds=1, iterations=1)
    results = {}
    for name, (density, dfrac, share) in HYBRID_PROFILES.items():
        workload = FactorizationWorkload.from_spec(name, rank=50)
        csr = hybrid = 0.0
        for mode in workload.modes:
            csr += kernel_time(
                mode.mttkrp_cost(50, PAPER_MACHINE, leaf_rep="csr",
                                 leaf_density=density),
                20, PAPER_MACHINE)
            hybrid += kernel_time(
                mode.mttkrp_cost(50, PAPER_MACHINE, leaf_rep="csr-h",
                                 leaf_density=density,
                                 dense_col_frac=dfrac,
                                 dense_col_share=share),
                20, PAPER_MACHINE)
        results[name] = (csr, hybrid)
    reddit_csr, reddit_h = results["reddit"]
    amazon_csr, amazon_h = results["amazon"]
    assert reddit_h < reddit_csr   # CSR-H helps Reddit ...
    assert amazon_h > amazon_csr   # ... but not Amazon (paper Table II)
