"""CSF construction: packed-key sort vs the N-key lexsort reference.

Times :meth:`repro.tensor.csf.CSFTensor.from_coo` (one stable sort over
packed ``int64`` keys, only key words and values permuted) against
:func:`repro.testing.oracles.lexsort_csf_reference` (``np.lexsort`` over
every coordinate row, all rows gathered) for every mode-rooted tree of
the four Table-I datasets at the ``small`` preset.  Every row asserts
that the two trees are equal in every byte and dtype, so the time saved
is pure set-up: the trees, and so every MTTKRP and factor, are the same.

Primary artifact: ``results/BENCH_csf_build.json``; a table is saved
alongside.
"""

from __future__ import annotations

import statistics
import time

from repro.tensor.csf import CSFTensor, default_mode_order
from repro.testing.oracles import lexsort_csf_reference

from conftest import DATASET_NAMES, save_artifact, save_bench_json

#: Timed builds per (dataset, mode, method); rows report the median.
ROUNDS = 7


def _median_seconds(build, tensor, order) -> tuple[float, CSFTensor]:
    times = []
    for _ in range(ROUNDS):
        tick = time.perf_counter()
        tree = build(tensor, order)
        times.append(time.perf_counter() - tick)
    return statistics.median(times), tree


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


def test_bench_csf_build(small_datasets, results_dir):
    rows = run_csf_build(small_datasets)
    totals = {}
    for row in rows:
        ref_s, packed_s = totals.get(row["dataset"], (0.0, 0.0))
        totals[row["dataset"]] = (ref_s + row["reference_s"],
                                  packed_s + row["packed_s"])
    path = save_bench_json(results_dir, "csf_build", {
        "rounds": ROUNDS, "rows": rows,
        "all_modes": [{"dataset": name, "reference_s": ref_s,
                       "packed_s": packed_s, "speedup": ref_s / packed_s}
                      for name, (ref_s, packed_s) in totals.items()],
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
    lines.append(f"[json saved to results/{path.name}]")
    save_artifact(results_dir, "bench_csf_build", "\n".join(lines))
