"""Time-to-target benchmark for ``repro.fit``.

Run from the repository root:

    python3 perfbench/run.py --workload patents-mttkrp --seed 1 --seconds 35 --trace 0

One run builds the workload's inputs from ``--seed`` (untimed), then
alternates a timed set-up with a fit, one fit at a time, until
``--seconds`` have passed.  Every fit passes the correctness gate in
``gate.py`` or counts as failed.

``--trace 0`` reports the end-to-end metrics, timing the fixed reference
of ``reference.py`` between fits so that ``tts_ref`` divides out the
shared host's speed; ``--trace 1`` alternates
untraced fits with fits whose layers are wrapped from outside (see
``layers.py``) and reports the per-layer metrics, the tracing overhead
and an accounting self-check; its spans are written to
``perfbench/out/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when no fit failed; without the sources under
``src/`` the run exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Fewest set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 5
#: BLAS threads per process: one, like the library's ``threads=1``.
BLAS_THREADS = 1

END_TO_END_UNITS = {
    "tts_ref": "ratio", "setup_s": "s", "outer_iters": "count",
    "rel_error": "ratio", "peak_rss_mb": "MB",
}
#: Printed in the summary but left out of the JSON line:
#: * ``tts_s`` drifts with the shared host's speed by more than any
#:   allowed bound from one run to the next; ``tts_ref`` divides the
#:   drift out (see ``reference.py``).
#: * An iteration's time depends on the starting point: on
#:   reddit-sparse the second iteration took 0.15 to 0.54 s over 40
#:   starting points, so the median over a run's 6 to 30 fits moves by
#:   about a fifth from seed to seed, with or without the reference.
#: * A run holds 6 to 30 iteration samples, too few for ten of them to
#:   lie beyond the 90th percentile.
SUMMARY_UNITS = {"tts_s": "s", "iter_ref": "ratio", "iter_s": "s",
                 "iter_s_p90": "s", "reference_ms": "ms"}
PER_LAYER_UNITS = {
    "kernels.mttkrp_s": "s", "kernels.mttkrp_calls": "count",
    "kernels.mttkrp_ms_p50": "ms", "kernels.gathered_nnz": "count",
    "kernels.alloc_bytes": "B", "kernels.workspace_bytes": "B",
    "kernels.tune_frac": "ratio", "tensor.csf_build_frac": "ratio",
    "sparse.mttkrp_frac": "ratio", "sparse.call_frac": "ratio",
    "sparse.update_factor_s": "s", "admm.update_s": "s",
    "admm.updates": "count", "admm.update_ms_p50": "ms",
    "admm.inner_iters": "count", "admm.block_row_iters": "count",
    "admm.cap_hit_frac": "ratio", "linalg.gram_s": "s",
    "tensor.shard_frac": "ratio", "tensor.slab_load_frac": "ratio",
    "tensor.slab_loads": "count", "tensor.slab_hit_ratio": "ratio",
    "robustness.checkpoint_frac": "ratio",
    "robustness.checkpoint_bytes": "B",
    "core.driver_self_s": "s", "core.fit_s": "s",
    "trace_overhead_frac": "ratio",
}


@dataclass
class FitOutcome:
    seconds: float = 0.0
    #: Wall time between consecutive callbacks (iteration 2 onwards).
    iter_seconds: list[float] = field(default_factory=list)
    iterations: int = 0
    error: float = 0.0
    traced: bool = False
    layers: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def hermetic_env(tmp: Path) -> None:
    """Drop ``REPRO_*`` settings and keep every artifact under *tmp*.

    Runs before NumPy is imported, so the BLAS thread cap takes effect.
    """
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["XDG_CACHE_HOME"] = str(tmp / "cache")
    os.environ["REPRO_TUNE_CACHE"] = str(tmp / "cache" / "autotune.json")
    os.environ["TMPDIR"] = str(tmp)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def header(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def one_fit(inst, index: int, init: int, recorder=None) -> FitOutcome:
    """Run fit *index* from starting point *init*, traced when *recorder*
    is given, and gate it."""
    import repro

    import gate
    import layers

    w = inst.workload
    marks: list[float] = []

    def callback(record) -> bool:
        marks.append(time.perf_counter())
        return w.reached(record)

    fitdir = inst.workdir / f"fit{index}"
    fitdir.mkdir()
    checkpoint = fitdir / "ck.npz" if w.out_of_core else None
    options = inst.options(callback, checkpoint, init)
    source = inst.source()
    out = FitOutcome(traced=recorder is not None)
    try:
        if recorder is None:
            start = time.perf_counter()
            result = repro.fit(source, options=options, observe=False)
            out.seconds = time.perf_counter() - start
        else:
            recorder.fit = index
            try:
                with layers.installed(recorder,
                                      options.max_inner_iterations):
                    start = time.perf_counter()
                    with recorder.span("core.fit") as root:
                        engine = inst.make_engine(source, options)
                        result = repro.fit(
                            source, options=options, observe=False,
                            engine=layers.EngineProxy(engine, recorder))
                        engine.close()
                    out.seconds = time.perf_counter() - start
            finally:
                recorder.fit = None
            out.layers, out.problems = layers.fit_layer_metrics(
                recorder.of_fit(index), root, out.seconds, result.trace,
                engine)
        out.iterations = result.iterations
        out.iter_seconds = [b - a for a, b in zip(marks, marks[1:])]
        out.error, problems = gate.check_fit(inst.tensor, result,
                                             w.target_error)
        out.problems += problems
        if w.out_of_core:
            out.problems += gate.check_resume(checkpoint, out.iterations)
    finally:
        if w.out_of_core:
            source.close()
        shutil.rmtree(fitdir, ignore_errors=True)
    return out


def one_setup(inst, recorder=None) -> tuple[float, float]:
    """Seconds of one set-up and, when traced, its share spent sharding."""
    import layers

    if recorder is None:
        return inst.setup(), 0.0
    with layers.installed(recorder, 0):
        with recorder.span("core.setup") as root:
            seconds = inst.setup()
    shard = sum(s.seconds for s in recorder.spans
                if s.parent == root.id and s.name == "tensor.shard")
    return seconds, shard / root.seconds


def measure(inst, seconds: float, traced: bool):
    """Set-ups and fits until *seconds* have passed since the start.

    Each round times one set-up, then one fit; a traced run's round is
    an untraced and a traced fit from the same starting point, in an
    order that swaps every round.
    Spreading the set-ups over the run keeps a slow spell of the
    machine from owning all of them.  A new round starts while at least
    half of the median one so far fits before the deadline, so a run
    lasts about *seconds* on average; set-ups are then topped up to
    ``SETUP_REPS``.  An untraced run also times the reference before its
    first fit and after every fit.
    """
    from reference import Reference
    from spans import Recorder

    recorder = Recorder() if traced else None
    reference = None if traced else Reference()
    deadline = time.perf_counter() + seconds
    setup_seconds: list[float] = []
    shard_fracs: list[float] = []
    outcomes: list[FitOutcome] = []
    rounds: list[float] = []
    reference_seconds = [reference.seconds()] if reference else []

    def set_up() -> None:
        setup, shard = one_setup(inst, recorder)
        setup_seconds.append(setup)
        shard_fracs.append(shard)

    while not rounds or time.perf_counter() + statistics.median(rounds) / 2 \
            <= deadline:
        start = time.perf_counter()
        set_up()
        kinds = [None] if not traced else (
            [None, recorder] if len(rounds) % 2 == 0 else [recorder, None])
        for rec in kinds:
            try:
                outcomes.append(one_fit(inst, len(outcomes) + 1,
                                        len(rounds), rec))
            except Exception:  # one broken fit must not end the run
                traceback.print_exc()
                outcomes.append(FitOutcome(traced=rec is not None,
                                           problems=["raised"]))
            if reference:
                reference_seconds.append(reference.seconds())
        rounds.append(time.perf_counter() - start)
    while len(setup_seconds) < SETUP_REPS:
        set_up()
    return setup_seconds, reference_seconds, shard_fracs, outcomes, recorder


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1]


def end_to_end(setup_seconds, reference_seconds,
               outcomes) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    iters = [t for o in outcomes for t in o.iter_seconds]
    tts = statistics.median(o.seconds for o in outcomes)
    reference = statistics.median(reference_seconds)
    values = {
        "tts_ref": tts / reference,
        "tts_s": tts,
        "setup_s": statistics.median(setup_seconds),
        "iter_ref": statistics.median(iters) / reference,
        "iter_s": statistics.median(iters),
        "iter_s_p90": quantile(iters, 0.9),
        "reference_ms": 1e3 * reference,
        "outer_iters": statistics.median(o.iterations for o in outcomes),
        "rel_error": statistics.median(o.error for o in outcomes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"tts_ref": len(outcomes), "tts_s": len(outcomes),
              "setup_s": len(setup_seconds), "iter_ref": len(iters),
              "iter_s": len(iters), "iter_s_p90": len(iters),
              "reference_ms": len(reference_seconds),
              "outer_iters": len(outcomes),
              "rel_error": len(outcomes), "peak_rss_mb": 1}
    return values, counts


def per_layer(shard_fracs, outcomes) -> tuple[dict, dict]:
    traced = [o for o in outcomes if o.traced]
    values = {name: statistics.median(o.layers[name] for o in traced)
              for name in traced[0].layers}
    values["tensor.shard_frac"] = statistics.median(shard_fracs)
    plain = statistics.median(o.seconds for o in outcomes if not o.traced)
    values["trace_overhead_frac"] = (
        statistics.median(o.seconds for o in traced) / plain - 1.0)
    counts = {name: len(traced) for name in values}
    counts["tensor.shard_frac"] = len(shard_fracs)
    return values, counts


def report(args, head, attempted, failed, values, counts, units) -> None:
    print("perfbench header " + json.dumps(head))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} fits attempted, {failed} failed, "
          f"fail_frac {failed / attempted:.3f}")
    for name, value in values.items():
        unit = units.get(name) or SUMMARY_UNITS[name]
        print(f"  {name:28s} {value:16.6f} {unit:6s} n={counts[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items() if name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run(args, workdir: Path) -> int:
    from workloads import WORKLOADS, Instance

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    head = header(args)
    inst = Instance(WORKLOADS[args.workload], args.seed, workdir)
    traced = bool(args.trace)
    setup_seconds, reference_seconds, shard_fracs, outcomes, recorder = \
        measure(inst, args.seconds, traced)
    for i, o in enumerate(outcomes, 1):
        print(f"perfbench: fit {i}{' traced' if o.traced else ''}: "
              f"{o.seconds:.4f} s, {o.iterations} iterations, error "
              f"{o.error:.6f}", file=sys.stderr)
        for problem in o.problems:
            print(f"perfbench: fit {i}: {problem}", file=sys.stderr)
    good = [o for o in outcomes if not o.problems]
    failed = len(outcomes) - len(good)
    values: dict = {}
    counts: dict = {}
    if traced:
        if any(o.traced for o in good) and any(not o.traced for o in good):
            values, counts = per_layer(shard_fracs, good)
        recorder.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json",
                      head)
        units = PER_LAYER_UNITS
    else:
        if good:
            values, counts = end_to_end(setup_seconds, reference_seconds,
                                        good)
        units = END_TO_END_UNITS
    report(args, head, len(outcomes), failed, values, counts, units)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    workdir = OUT / f"tmp-{os.getpid()}"
    hermetic_env(workdir)
    workdir.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    try:
        import repro
        if Path(repro.__file__).resolve().parent != SRC / "repro":
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  f"{SRC}", file=sys.stderr)
            return 2
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
