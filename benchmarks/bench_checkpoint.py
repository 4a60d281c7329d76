"""Checkpoint saves: hash once, write behind the next iteration.

Times one checkpoint save of the ``amazon-ooc`` state (Amazon ``small``,
rank 16) split into its hashing, its ``np.savez`` write and its fsyncs,
before and after checkpoint format 2:

* **before** (format 1): every save hashed the tensor's coordinates and
  values, hashed the primals a second time for ``state_sha1``, and hashed
  the payload through a ``tobytes()`` copy of every array, all on the
  fit's thread;
* **after** (format 2): the tensor is fingerprinted once per fit, the
  payload SHA-1 (through the buffer protocol, no copy) is the only hash,
  and the fit's thread pays only for copying the state it hands to the
  writer.

Both hash the same bytes to the same digests (asserted).  The ``fits``
rows time whole out-of-core fits (quarter byte budget, a checkpoint every
iteration, the newest two kept) without checkpoints, with synchronous
writes (the ``serial`` executor) and with background writes (the
``thread`` executor).  Factors are asserted bitwise equal across the
three.

Primary artifact: ``results/BENCH_checkpoint.json``; a table is saved
alongside.  The JSON's ``perfbench`` block (end-to-end ``tts_ref``
medians from ``perfbench/run.py`` runs on ``amazon-ooc``) is carried over
when the file is regenerated.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.admm.state import AdmmState
from repro.core.aoadmm import fit_aoadmm
from repro.core.options import AOADMMOptions
from repro.core.serialize import payload_fingerprint
from repro.core.trace import FactorizationTrace, OuterIterationRecord
from repro.datasets import load_dataset
from repro.robustness.checkpoint import (
    CheckpointStore,
    TensorIdentity,
    _trace_arrays,
    tensor_fingerprint,
)
from repro.tensor.random import random_factors
from repro.tensor.store import ShardedTensorStore

from conftest import BENCH_SEED, save_artifact, save_bench_json

#: Timed saves per row; rows report the median.
ROUNDS = 15
#: Timed fits per configuration.
FIT_ROUNDS = 11
RANK = 16


def _legacy_fingerprint(*arrays: np.ndarray) -> str:
    """Format 1's array hash: a ``tobytes()`` copy of every array."""
    digest = hashlib.sha1()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _legacy_payload(arrays: dict) -> str:
    keys = sorted(arrays)
    digest = hashlib.sha1()
    for key in keys:
        digest.update(key.encode())
        digest.update(b"\0")
    digest.update(_legacy_fingerprint(*(arrays[k] for k in keys)).encode())
    return digest.hexdigest()


def _state(tensor):
    factors = random_factors(tensor.shape, RANK, seed=BENCH_SEED)
    states = [AdmmState(f, 0.1 * f) for f in factors]
    trace = FactorizationTrace()
    for i in range(4):
        trace.append(OuterIterationRecord(
            iteration=i + 1, relative_error=0.7 - 0.01 * i,
            mttkrp_seconds=0.01, admm_seconds=0.01, other_seconds=0.01,
            inner_iterations=(5,) * 3, factor_densities=(1.0,) * 3,
            representations=("dense",) * 3, jitter_added=(0.0,) * 3))
    arrays = {}
    for m, s in enumerate(states):
        arrays[f"primal{m}"] = s.primal
        arrays[f"dual{m}"] = s.dual
    arrays["rhos"] = np.ones(3)
    arrays.update(_trace_arrays(trace, 3))
    return states, trace, arrays


def _median_ms(fn) -> float:
    times = []
    for _ in range(ROUNDS):
        tick = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tick)
    return 1e3 * statistics.median(times)


def _write_and_fsync_ms(arrays: dict, directory: str) -> tuple[float, float]:
    """Median ms of the ``np.savez`` write and of its two fsyncs."""
    writes, syncs = [], []
    for _ in range(ROUNDS):
        fd, name = tempfile.mkstemp(suffix=".npz", dir=directory)
        tick = time.perf_counter()
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            mid = time.perf_counter()
            os.fsync(handle.fileno())
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        end = time.perf_counter()
        os.unlink(name)
        writes.append(mid - tick)
        syncs.append(end - mid)
    return (1e3 * statistics.median(writes),
            1e3 * statistics.median(syncs))


def run_saves(tensor, directory: str) -> list[dict]:
    states, trace, arrays = _state(tensor)
    primals = [s.primal for s in states]
    assert _legacy_payload(arrays) == payload_fingerprint(arrays)
    assert (_legacy_fingerprint(tensor.coords, tensor.vals)
            == tensor_fingerprint(tensor)["sha1"])
    write_ms, fsync_ms = _write_and_fsync_ms(arrays, directory)
    tensor_ms = _median_ms(
        lambda: _legacy_fingerprint(tensor.coords, tensor.vals))
    state_ms = _median_ms(lambda: _legacy_fingerprint(*primals))
    legacy_payload_ms = _median_ms(lambda: _legacy_payload(arrays))
    payload_ms = _median_ms(lambda: payload_fingerprint(arrays))
    snapshot_ms = _median_ms(lambda: (
        [s.copy() for s in states],
        replace(trace, records=list(trace.records),
                guard_log=list(trace.guard_log))))
    before_hash = tensor_ms + state_ms + legacy_payload_ms
    before = before_hash + write_ms + fsync_ms
    after = payload_ms + write_ms + fsync_ms
    nbytes = sum(a.nbytes for a in arrays.values())
    return [
        {"format": 1, "payload_bytes": nbytes,
         "tensor_hash_ms": tensor_ms, "state_hash_ms": state_ms,
         "payload_hash_ms": legacy_payload_ms, "hash_ms": before_hash,
         "write_ms": write_ms, "fsync_ms": fsync_ms, "save_ms": before,
         "fit_thread_ms": before},
        {"format": 2, "payload_bytes": nbytes,
         "tensor_hash_ms": 0.0, "state_hash_ms": 0.0,
         "payload_hash_ms": payload_ms, "hash_ms": payload_ms,
         "write_ms": write_ms, "fsync_ms": fsync_ms, "save_ms": after,
         "fit_thread_ms": snapshot_ms},
    ]


def run_store_saves(tensor, directory: str) -> dict:
    """``CheckpointStore.save`` end to end, given the tensor or its
    once-taken identity."""
    states, trace, _ = _state(tensor)
    options = AOADMMOptions(rank=RANK)
    store = CheckpointStore(os.path.join(directory, "ck.npz"), keep_last=2)
    identity = TensorIdentity(tensor)
    return {
        "store_save_tensor_ms": _median_ms(
            lambda: store.save(tensor, options, states, trace)),
        "store_save_identity_ms": _median_ms(
            lambda: store.save(identity, options, states, trace)),
    }


#: (label, executor, checkpoint every iteration) of the timed fits.
FIT_CONFIGS = (("no checkpoint", "thread", False),
               ("serial writes", "serial", True),
               ("background writes", "thread", True))


def run_fits(tensor, directory: str) -> list[dict]:
    """Median fit seconds per configuration, rounds interleaved after one
    untimed warm-up fit (kernel load, page cache)."""
    store = ShardedTensorStore.create(tensor, os.path.join(directory, "s"))
    budget = store.storage_bytes() // 4

    def fit(executor, checkpoint_dir):
        extra = {}
        if checkpoint_dir is not None:
            os.makedirs(checkpoint_dir)
            extra = dict(checkpoint_every=1, checkpoint_keep_last=2,
                         checkpoint_path=os.path.join(checkpoint_dir,
                                                      "ck.npz"))
        options = AOADMMOptions(rank=RANK, constraints="nonneg",
                                blocked=True, seed=BENCH_SEED,
                                max_outer_iterations=4, outer_tolerance=0.0,
                                max_bytes_in_core=budget, executor=executor,
                                **extra)
        tick = time.perf_counter()
        result = fit_aoadmm(store, options)
        return time.perf_counter() - tick, result.model.factors

    _, reference = fit("thread", None)
    times = {label: [] for label, _, _ in FIT_CONFIGS}
    for k in range(FIT_ROUNDS):
        for label, executor, checkpoint in FIT_CONFIGS:
            seconds, factors = fit(executor, os.path.join(
                directory, f"{executor}{k}") if checkpoint else None)
            assert all(np.array_equal(a, b)
                       for a, b in zip(reference, factors))
            times[label].append(seconds)
    store.close()
    return [{"config": label, "executor": executor,
             "fit_s": statistics.median(times[label])}
            for label, executor, _ in FIT_CONFIGS]


def test_bench_checkpoint(results_dir, tmp_path):
    tensor, _ = load_dataset("amazon", "small", seed=BENCH_SEED)
    saves = run_saves(tensor, str(tmp_path))
    store_saves = run_store_saves(tensor, str(tmp_path))
    fits = run_fits(tensor, str(tmp_path))
    previous = results_dir / "BENCH_checkpoint.json"
    perfbench = (json.loads(previous.read_text()).get("perfbench")
                 if previous.exists() else None)
    path = save_bench_json(results_dir, "checkpoint", {
        "dataset": "amazon/small", "rank": RANK, "rounds": ROUNDS,
        "saves": saves, **store_saves, "fit_rounds": FIT_ROUNDS,
        "fits": fits,
        **({"perfbench": perfbench} if perfbench else {}),
    })

    lines = [f"Checkpoint save, amazon/small rank {RANK} "
             f"({saves[0]['payload_bytes'] / 1e6:.1f} MB payload, "
             f"median of {ROUNDS}, ms)",
             f"{'format':>6} {'tensor':>7} {'state':>6} {'payload':>8} "
             f"{'write':>6} {'fsync':>6} {'save':>6} {'fit thread':>11}"]
    for row in saves:
        lines.append(f"{row['format']:>6} {row['tensor_hash_ms']:>7.1f} "
                     f"{row['state_hash_ms']:>6.1f} "
                     f"{row['payload_hash_ms']:>8.1f} "
                     f"{row['write_ms']:>6.1f} {row['fsync_ms']:>6.1f} "
                     f"{row['save_ms']:>6.1f} {row['fit_thread_ms']:>11.1f}")
    lines.append(f"CheckpointStore.save: tensor "
                 f"{store_saves['store_save_tensor_ms']:.1f} ms, identity "
                 f"{store_saves['store_save_identity_ms']:.1f} ms")
    lines += ["", f"Out-of-core fits, 4 iterations, quarter budget "
              f"(median of {FIT_ROUNDS}, bitwise-equal factors)"]
    for row in fits:
        lines.append(f"{row['config']:>18}: {row['fit_s'] * 1e3:.1f} ms")
    lines.append(f"[json saved to results/{path.name}]")
    save_artifact(results_dir, "bench_checkpoint", "\n".join(lines))
