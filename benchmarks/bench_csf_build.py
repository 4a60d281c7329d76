"""CSF construction: packed-key sort vs the N-key lexsort reference, and
the all-mode bundle's one sort vs one sort per tree.

Times :meth:`repro.tensor.csf.CSFTensor.from_coo` (one stable sort over
packed ``int64`` keys, each level's ids gathered through it) against
:func:`repro.testing.oracles.lexsort_csf_reference` (``np.lexsort`` over
every coordinate row, all rows gathered) for every mode-rooted tree of
the four Table-I datasets at the ``small`` preset.  The all-mode rows
time :meth:`repro.tensor.csf.AllModeCSF.build_all` (sort once for tree
0, derive every other tree from that permutation) three ways against
``from_coo`` for each tree in turn: the NumPy construction
(``numpy_build_all_s``: ``uint16`` radix passes over each root mode,
then each level gathered, one tree after another) and the compiled
builder of :mod:`repro.kernels.csf_build` at 1 and 2 threads
(``compiled_build_all_s``; 1 is the ``serial`` executor, 2 the
``thread`` executor's pool).  They also split one tree's order into its
own packed-key sort (``sort_s``) and its NumPy derivation from tree 0's
permutation (``derive_s``).  Every row asserts that the trees are equal
in every byte and dtype, so the time saved is pure set-up: the trees,
and so every MTTKRP and factor, are the same.

Primary artifact: ``results/BENCH_csf_build.json``; a table is saved
alongside.  The JSON's ``perfbench`` block (end-to-end ``setup_s`` and
``tts_ref`` medians, recorded from ``perfbench/run.py`` runs) is carried
over when the file is regenerated.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.kernels.csf_build import tree_builder
from repro.parallel.executor import resolve_executor
from repro.tensor.csf import (
    AllModeCSF,
    CSFTensor,
    default_mode_order,
    derive_permutation,
)
from repro.testing.oracles import lexsort_csf_reference

from conftest import DATASET_NAMES, save_artifact, save_bench_json

#: Timed builds per (dataset, mode, method); rows report the median.
ROUNDS = 7
#: Threads of the compiled all-mode rows, and the executor of each.
THREADS = {1: "serial", 2: "thread"}


def _median_seconds(build, *args):
    times = []
    for _ in range(ROUNDS):
        tick = time.perf_counter()
        out = build(*args)
        times.append(time.perf_counter() - tick)
    return statistics.median(times), out


def _tree_bytes(tree: CSFTensor) -> list[tuple[str, bytes]]:
    return [(str(a.dtype), a.tobytes())
            for a in tree.fids + tree.fptr + [tree.vals]]


def run_csf_build(datasets) -> list[dict]:
    rows = []
    for name in DATASET_NAMES:
        tensor = datasets[name]
        for mode in range(tensor.nmodes):
            order = default_mode_order(tensor.nmodes, mode)
            ref_s, ref = _median_seconds(lexsort_csf_reference, tensor,
                                         order)
            packed_s, packed = _median_seconds(CSFTensor.from_coo, tensor,
                                               order)
            bytes_equal = _tree_bytes(packed) == _tree_bytes(ref)
            assert bytes_equal, f"packed tree differs on {name} mode {mode}"
            rows.append({
                "dataset": f"{name}/small", "nnz": tensor.nnz,
                "mode": mode, "mode_order": list(order),
                "reference_s": ref_s, "packed_s": packed_s,
                "speedup": ref_s / packed_s, "bytes_equal": bytes_equal,
            })
    return rows


def _per_tree(tensor):
    return [CSFTensor.from_coo(tensor, default_mode_order(tensor.nmodes, m))
            for m in range(tensor.nmodes)]


def _numpy_bundle(tensor):
    """What ``build_all`` builds without the compiled builder."""
    perm0 = tensor.permutation_lex()
    return [CSFTensor._from_permutation(
                tensor, default_mode_order(tensor.nmodes, m),
                derive_permutation(tensor, perm0, m))
            for m in (*range(1, tensor.nmodes), 0)]


def run_all_mode(datasets) -> list[dict]:
    assert tree_builder() is not None, "compiled CSF construction " \
        "unavailable: the compiled rows would time NumPy"
    rows = []
    for name in DATASET_NAMES:
        tensor = datasets[name]
        per_tree_s, per_tree = _median_seconds(_per_tree, tensor)
        want = [_tree_bytes(tree) for tree in per_tree]
        numpy_s, bundle = _median_seconds(_numpy_bundle, tensor)
        bytes_equal = [_tree_bytes(tree) for tree in
                       bundle[-1:] + bundle[:-1]] == want
        compiled_s = {}
        for threads, executor in THREADS.items():
            compiled_s[threads], trees = _median_seconds(
                lambda: AllModeCSF(tensor).build_all(
                    resolve_executor(executor), threads))
            bytes_equal &= [_tree_bytes(trees.csf(m))
                            for m in range(tensor.nmodes)] == want
        assert bytes_equal, f"all-mode trees differ on {name}"
        perm0 = tensor.permutation_lex()
        sort_s = [_median_seconds(tensor.permutation_lex,
                                  default_mode_order(tensor.nmodes, m))[0]
                  for m in range(tensor.nmodes)]
        derive_s = [_median_seconds(derive_permutation, tensor, perm0, m)[0]
                    for m in range(tensor.nmodes)]
        rows.append({
            "dataset": f"{name}/small", "nnz": tensor.nnz,
            "shape": list(tensor.shape),
            "per_tree_from_coo_s": per_tree_s,
            "numpy_build_all_s": numpy_s,
            "compiled_build_all_s": compiled_s,
            "speedup_vs_numpy": {t: numpy_s / s
                                 for t, s in compiled_s.items()},
            "bytes_equal": bytes_equal,
            "sort_s": sort_s, "derive_s": derive_s,
        })
    return rows


def test_bench_csf_build(small_datasets, results_dir):
    rows = run_csf_build(small_datasets)
    all_mode = run_all_mode(small_datasets)
    totals = {}
    for row in rows:
        ref_s, packed_s = totals.get(row["dataset"], (0.0, 0.0))
        totals[row["dataset"]] = (ref_s + row["reference_s"],
                                  packed_s + row["packed_s"])
    previous = results_dir / "BENCH_csf_build.json"
    perfbench = (json.loads(previous.read_text()).get("perfbench")
                 if previous.exists() else None)
    path = save_bench_json(results_dir, "csf_build", {
        "rounds": ROUNDS, "rows": rows,
        "all_modes": [{"dataset": name, "reference_s": ref_s,
                       "packed_s": packed_s, "speedup": ref_s / packed_s}
                      for name, (ref_s, packed_s) in totals.items()],
        "all_mode_bundle": all_mode,
        **({"perfbench": perfbench} if perfbench else {}),
    })

    lines = ["CSF construction: N-key lexsort reference vs packed keys "
             f"(median of {ROUNDS}, byte-identical trees)",
             f"{'dataset':>15} {'mode':>5} {'reference ms':>13} "
             f"{'packed ms':>10} {'speedup':>8}"]
    for row in rows:
        lines.append(f"{row['dataset']:>15} {row['mode']:>5} "
                     f"{row['reference_s'] * 1e3:>13.1f} "
                     f"{row['packed_s'] * 1e3:>10.1f} "
                     f"{row['speedup']:>8.1f}")
    for name, (ref_s, packed_s) in totals.items():
        lines.append(f"{name:>15} {'all':>5} {ref_s * 1e3:>13.1f} "
                     f"{packed_s * 1e3:>10.1f} {ref_s / packed_s:>8.1f}")
    lines += ["", "All trees: from_coo per tree vs AllModeCSF.build_all "
              "(one sort; NumPy derivation, or compiled at 1 and 2 "
              "threads; byte-identical trees)",
              f"{'dataset':>15} {'per-tree ms':>12} {'numpy ms':>9} "
              f"{'compiled t1 ms':>15} {'t2 ms':>6} {'t2 speedup':>11}  "
              "sort ms / derive ms per mode"]
    for row in all_mode:
        split = "  ".join(f"{a * 1e3:.1f}/{b * 1e3:.1f}"
                          for a, b in zip(row["sort_s"], row["derive_s"]))
        compiled = row["compiled_build_all_s"]
        lines.append(f"{row['dataset']:>15} "
                     f"{row['per_tree_from_coo_s'] * 1e3:>12.1f} "
                     f"{row['numpy_build_all_s'] * 1e3:>9.1f} "
                     f"{compiled[1] * 1e3:>15.1f} "
                     f"{compiled[2] * 1e3:>6.1f} "
                     f"{row['speedup_vs_numpy'][2]:>11.2f}  {split}")
    lines.append(f"[json saved to results/{path.name}]")
    save_artifact(results_dir, "bench_csf_build", "\n".join(lines))
