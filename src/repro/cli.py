"""Command-line interface.

Mirrors the workflows SPLATT's ``splatt`` binary offers:

* ``python -m repro stats <file.tns>`` — dataset summary (Table I style).
* ``python -m repro factorize <file.tns> --rank 16 --constraint nonneg``
  — run AO-ADMM, print the convergence trace, optionally save factors.
* ``python -m repro generate reddit --preset small out.tns`` — write a
  synthetic corpus to disk.
* ``python -m repro simulate reddit --rank 50`` — the Figure 4/5 speedup
  curves on the simulated machine.
* ``python -m repro fsck <path> [--repair] [--source t.tns]`` — scrub
  sharded stores and checkpoints against their checksums; exit 0 when
  clean, 4 when unrepaired corruption remains.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np


def _cmd_stats(args: argparse.Namespace) -> int:
    from .bench.tables import format_table
    from .tensor.coo import COOTensor
    from .tensor.stats import compute_stats
    from .tensor.store import open_tensor

    tensor = open_tensor(args.tensor)
    if not isinstance(tensor, COOTensor):
        # Fiber/skew statistics need explicit coordinates; a store's
        # summary view expands once, here, not in the fit path.
        tensor = tensor.to_coo()
    stats = compute_stats(tensor)
    rows = [{
        "NNZ": stats.nnz,
        "shape": "x".join(str(s) for s in stats.shape),
        "density": f"{stats.density:.3e}",
        "fibers/mode": "/".join(str(f) for f in stats.fibers_per_mode),
        "skew(gini)/mode": "/".join(f"{g:.2f}" for g in stats.slice_skew),
    }]
    print(format_table(rows, title=str(args.tensor)))
    return 0


def _cmd_factorize(args: argparse.Namespace) -> int:
    from .constraints.registry import make_constraint
    from .core.aoadmm import fit_aoadmm
    from .core.options import options_from_kwargs
    from .robustness.preemption import preempt_on_signals
    from .tensor.store import open_tensor

    tensor = open_tensor(args.tensor,
                         max_bytes_in_core=args.max_bytes_in_core)
    constraint = make_constraint(
        args.constraint,
        **({"weight": args.weight} if args.constraint in
           ("l1", "nonneg_l1", "l2") else {}))
    # Same flat-kwargs -> Options translation path repro.fit uses, so
    # CLI flags and fit keywords can never drift apart.
    options = options_from_kwargs(
        rank=args.rank,
        constraints=constraint,
        blocked=not args.unblocked,
        block_size=args.block_size,
        representation=args.repr,
        seed=args.seed,
        max_iter=args.max_iterations,
        tol=args.tolerance,
        guard_policy=args.guard_policy,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        checkpoint_keep_last=args.keep_last,
        max_bytes_in_core=args.max_bytes_in_core,
        tune=args.tune,
    )
    # SIGTERM/SIGINT stop the fit after a final checkpoint, so they are
    # caught only when there is a checkpoint to resume from.
    with (preempt_on_signals() if args.checkpoint else nullcontext()) \
            as preempt_flag:
        options = replace(options, preempt_flag=preempt_flag)
        result = fit_aoadmm(tensor, options, resume_from=args.resume)
    for record in result.trace.records:
        if args.verbose or record.iteration == len(result.trace):
            print(f"iter {record.iteration:4d}  "
                  f"err {record.relative_error:.6f}  "
                  f"mttkrp {record.mttkrp_seconds:.2f}s  "
                  f"admm {record.admm_seconds:.2f}s  "
                  f"inner {record.inner_iterations}")
    print(f"stopped: {result.stop_reason}; relative error "
          f"{result.relative_error:.6f}; "
          f"total {result.trace.total_seconds():.1f}s")
    if result.stop_reason == "preempted":
        print("preempted; resume with --resume "
              f"{result.options.checkpoint_path}")
        return 3
    if args.output:
        saved = {f"mode{m}": f
                 for m, f in enumerate(result.model.factors)}
        np.savez(args.output, **saved)
        print(f"factors saved to {args.output}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .tensor.io import read_tns
    from .tensor.store import META_FILE, ShardedTensorStore

    # Look before writing: a target directory that exists but is not a
    # store (no meta.json) is somebody's data — refuse to shard into
    # it rather than scattering modeN/ directories over it.
    output = Path(args.output)
    if output.exists():
        if (output / META_FILE).exists():
            print(f"{output} already contains a sharded store; "
                  f"remove it first to re-shard")
            return 2
        if any(output.iterdir()):
            print(f"{output} exists and is not a sharded store "
                  f"(no {META_FILE}); refusing to overwrite it — "
                  f"pick an empty or new directory")
            return 2
    if ShardedTensorStore.is_store(args.tensor):
        print(f"{args.tensor} is already a sharded store")
        return 2
    # read_tns, not open_tensor: a byte budget in the environment must
    # not turn the input into a temporary store.
    tensor = read_tns(args.tensor)
    store = ShardedTensorStore.create(tensor, output,
                                      slab_nnz_target=args.slab_nnz)
    slabs = "/".join(str(store.slab_count(m)) for m in range(store.nmodes))
    print(f"{store} -> {args.output} (slabs per mode: {slabs})")
    store.close()
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from .integrity.fsck import fsck_path

    source = None
    if args.source is not None:
        from .tensor.io import read_tns
        from .tensor.store import ShardedTensorStore

        if ShardedTensorStore.is_store(args.source):
            print(f"--source {args.source} must be an in-core tensor "
                  f"file (.tns), not a store")
            return 2
        source = read_tns(args.source)
    report = fsck_path(args.path, repair=args.repair, source=source)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 4


def _cmd_generate(args: argparse.Namespace) -> int:
    from .datasets.synthetic import generate_dataset
    from .tensor.io import write_tns

    tensor, _ = generate_dataset(args.dataset, args.preset, seed=args.seed)
    write_tns(tensor, args.output,
              header=f"repro synthetic {args.dataset} "
                     f"preset={args.preset} seed={args.seed}")
    print(f"{tensor} -> {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .machine.speedup import THREAD_SWEEP, speedup_curve
    from .machine.workload import FactorizationWorkload

    workload = FactorizationWorkload.from_spec(args.dataset, rank=args.rank)
    header = "variant   " + "  ".join(f"T={t:>2d}" for t in THREAD_SWEEP)
    print(f"{args.dataset} (rank {args.rank}, simulated paper machine)")
    print(header)
    for label, blocked in (("base", False), ("blocked", True)):
        curve = speedup_curve(workload, blocked=blocked,
                              threads=THREAD_SWEEP)
        print(f"{label:8s}  "
              + "  ".join(f"{curve[t]:4.1f}" for t in THREAD_SWEEP))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constrained sparse tensor factorization with "
                    "accelerated AO-ADMM (ICPP 2017 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats",
                       help="summarize a .tns tensor or sharded store")
    p.add_argument("tensor")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("factorize",
                       help="run AO-ADMM on a .tns tensor or sharded store")
    p.add_argument("tensor")
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--constraint", default="nonneg")
    p.add_argument("--weight", type=float, default=0.1,
                   help="regularization weight for l1/nonneg_l1/l2")
    p.add_argument("--unblocked", action="store_true",
                   help="use the baseline full-matrix ADMM")
    p.add_argument("--block-size", type=int, default=50)
    p.add_argument("--repr", default="dense",
                   choices=("dense", "csr", "hybrid", "auto"),
                   help="deep-factor representation policy for MTTKRP")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--output", help="save factors as .npz")
    p.add_argument("--verbose", action="store_true",
                   help="print every outer iteration")
    p.add_argument("--guard-policy", default="raise",
                   choices=("off", "raise", "rollback", "repair"),
                   help="numerical-guard reaction (repro.robustness)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help=".npz destination for resumable checkpoints; "
                        "SIGTERM/SIGINT then stop the fit after a final "
                        "checkpoint (exit code 3, continue with --resume)")
    p.add_argument("--checkpoint-every", type=int, metavar="N",
                   help="checkpoint every N outer iterations "
                        "(requires --checkpoint)")
    p.add_argument("--resume", metavar="PATH",
                   help="resume bit-identically from a checkpoint "
                        "written by a previous run")
    p.add_argument("--keep-last", type=int, metavar="N",
                   help="retain the newest N versioned checkpoints "
                        "(requires --checkpoint)")
    p.add_argument("--max-bytes-in-core", type=int, metavar="BYTES",
                   help="stream the tensor out-of-core, keeping at most "
                        "this many slab bytes resident "
                        "(REPRO_MAX_BYTES_IN_CORE in the environment)")
    p.add_argument("--tune", default=None,
                   choices=("off", "model"),
                   help="MTTKRP slab-plan autotuning mode (default: "
                        "REPRO_TUNE or 'model'; results are "
                        "bit-identical across both modes)")
    p.set_defaults(func=_cmd_factorize)

    p = sub.add_parser("shard",
                       help="convert a .tns tensor into a sharded "
                            "on-disk store")
    p.add_argument("tensor", help="source .tns / .tns.gz file")
    p.add_argument("output", help="destination store directory")
    p.add_argument("--slab-nnz", type=int, metavar="N",
                   help="non-zeros per slab (default: config "
                        "DEFAULT_SLAB_NNZ)")
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser("fsck",
                       help="scrub stores and checkpoints; optionally "
                            "repair what checksums can prove damaged")
    p.add_argument("path",
                   help="store directory, checkpoint file/directory, "
                        "or a directory to walk")
    p.add_argument("--repair", action="store_true",
                   help="quarantine damaged artifacts, rebuild slabs "
                        "(needs --source), and clean stale staging "
                        "debris")
    p.add_argument("--source", metavar="TENSOR",
                   help=".tns file a store was sharded from; enables "
                        "slab rebuilds during --repair")
    p.add_argument("--json", action="store_true",
                   help="emit the report as JSON instead of a table")
    p.set_defaults(func=_cmd_fsck)

    p = sub.add_parser("generate", help="write a synthetic corpus")
    p.add_argument("dataset",
                   choices=("reddit", "nell", "amazon", "patents"))
    p.add_argument("output")
    p.add_argument("--preset", default="small",
                   choices=("tiny", "small", "medium"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate",
                       help="speedup curves on the simulated machine")
    p.add_argument("dataset",
                   choices=("reddit", "nell", "amazon", "patents"))
    p.add_argument("--rank", type=int, default=50)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
