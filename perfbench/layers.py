"""Wrap each layer's public entry points from outside the program.

Nothing under ``src/`` knows about the benchmark.  For the length of one
traced fit, :func:`installed` replaces these attributes with timing
wrappers and puts the originals back afterwards:

==========================================  =======================
entry point                                 span
==========================================  =======================
``repro.core.aoadmm.admm_update``           ``admm.update``
``repro.core.aoadmm.blocked_admm_update``   ``admm.update``
``GramCache`` methods                       ``linalg.gram``
``AllModeCSF.build_all``                    ``tensor.csf_build``
``BackendAutotuner.tune_engine``            ``kernels.tune``
``ShardedTensorStore.create``               ``tensor.shard``
``ShardedTensorStore.load_slab``            ``tensor.slab_load``
``CheckpointStore.save``                    ``robustness.checkpoint``
==========================================  =======================

``fit_aoadmm`` imports the two ADMM solvers by name, so they are patched in
``repro.core.aoadmm``'s namespace; the rest are patched on their class.
The MTTKRP engine is wrapped by :class:`EngineProxy`, which the
benchmark hands to ``repro.fit(..., engine=)``: ``kernels.mttkrp``
(tagged with the representation the engine's ``call_log`` reports) and
``sparse.update_factor``.  A missing attribute raises at install time,
and a call path that bypasses a wrapper fails the accounting check in
:func:`fit_layer_metrics`.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager

from spans import Recorder, Span, self_seconds

SPARSE_REPRESENTATIONS = ("csr", "csr-h")
#: Largest relative disagreement the accounting self-check accepts.
ACCOUNTING_TOLERANCE = 0.05


def _admm_counts(span: Span, report) -> None:
    blocks = getattr(report, "block_iterations", None)
    if blocks is None:
        blocks = (report.iterations,)
        row_iterations = 0
    else:
        row_iterations = report.total_row_iterations
    span.attrs.update(iterations=report.iterations,
                      row_iterations=row_iterations,
                      blocks=len(blocks),
                      capped=sum(1 for b in blocks
                                 if b >= span.attrs["max_iterations"]))


def _checkpoint_bytes(span: Span, path) -> None:
    span.attrs["bytes"] = path.stat().st_size


def _wrap(fn, recorder: Recorder, name: str, annotate=None, **attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name, **attrs) as sp:
            result = fn(*args, **kwargs)
        if annotate is not None:
            annotate(sp, result)
        return result
    return wrapper


def _patch(owner, attr: str, make):
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return owner, attr, raw


@contextmanager
def installed(recorder: Recorder, max_inner_iterations: int):
    """Patch every layer entry point for the enclosed block."""
    import repro.core.aoadmm as aoadmm
    from repro.kernels.autotune import BackendAutotuner
    from repro.linalg.grams import GramCache
    from repro.robustness.checkpoint import CheckpointStore
    from repro.tensor.csf import AllModeCSF
    from repro.tensor.store import ShardedTensorStore

    def timed(name, annotate=None, **attrs):
        return lambda fn: _wrap(fn, recorder, name, annotate, **attrs)

    admm = timed("admm.update", _admm_counts,
                 max_iterations=max_inner_iterations)
    targets = [
        (aoadmm, "admm_update", admm),
        (aoadmm, "blocked_admm_update", admm),
        *[(GramCache, m, timed("linalg.gram"))
          for m in ("set_factor", "invalidate", "gram", "gram_excluding",
                    "gram_all")],
        (AllModeCSF, "build_all", timed("tensor.csf_build")),
        (BackendAutotuner, "tune_engine", timed("kernels.tune")),
        (ShardedTensorStore, "create", timed("tensor.shard")),
        (ShardedTensorStore, "load_slab", timed("tensor.slab_load")),
        (CheckpointStore, "save",
         timed("robustness.checkpoint", _checkpoint_bytes)),
    ]
    undo = []
    try:
        for owner, attr, make in targets:
            undo.append(_patch(owner, attr, make))
        yield
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


class EngineProxy:
    """An MTTKRP engine whose ``mttkrp``/``update_factor`` are spanned."""

    def __init__(self, engine, recorder: Recorder) -> None:
        self._engine = engine
        self._recorder = recorder

    def mttkrp(self, factors, mode: int):
        with self._recorder.span("kernels.mttkrp") as sp:
            out = self._engine.mttkrp(factors, mode)
        sp.attrs["representation"] = self._engine.call_log[-1].representation
        return out

    def update_factor(self, mode: int, factor):
        with self._recorder.span("sparse.update_factor"):
            return self._engine.update_factor(mode, factor)

    def __getattr__(self, name: str):
        return getattr(self._engine, name)


def _total(spans, name, key=None) -> float:
    return sum((s.attrs[key] if key else s.seconds)
               for s in spans if s.name == name)


def fit_layer_metrics(spans: list[Span], root: Span, wall: float,
                      trace, engine) -> tuple[dict, list[str]]:
    """Per-layer numbers of one traced fit and its accounting problems.

    Layers that run on every workload report seconds.  Layers that only
    some workloads reach (tuning, CSF builds, sparse kernels, slab
    loads, checkpoints) report their share of the fit's wall time, so a
    workload that bypasses them reads 0 as a share, not as a time.

    *root* is the fit's ``core.fit`` span (engine build plus the
    ``repro.fit`` call), *wall* the same interval timed by the caller,
    *trace* the ``FactorizationTrace`` the fit returned and *engine*
    the unwrapped engine it ran on.
    """
    own = self_seconds(spans)
    main = [s for s in spans if s.thread == root.thread and s is not root]
    layer_self: dict[str, float] = {}
    for s in main:
        layer_self[s.name] = layer_self.get(s.name, 0.0) + own[s.id]
    driver_self = own[root.id]

    mttkrp = [s for s in spans if s.name == "kernels.mttkrp"]
    sparse = [s for s in mttkrp
              if s.attrs["representation"] in SPARSE_REPRESENTATIONS]
    admm = [s for s in spans if s.name == "admm.update"]
    log = engine.call_log
    cache = getattr(engine, "cache", None)
    slab = cache.stats() if cache is not None else {"hits": 0, "misses": 0,
                                                     "loads": 0}
    lookups = slab["hits"] + slab["misses"]
    blocks = sum(s.attrs["blocks"] for s in admm)

    metrics = {
        "kernels.mttkrp_s": _total(spans, "kernels.mttkrp"),
        "kernels.mttkrp_calls": len(mttkrp),
        "kernels.mttkrp_ms_p50": 1e3 * statistics.median(
            s.seconds for s in mttkrp),
        "kernels.gathered_nnz": sum(c.gathered_nnz for c in log),
        "kernels.alloc_bytes": sum(c.bytes_allocated for c in log),
        "kernels.workspace_bytes": (engine.workspace_bytes()
                                    if hasattr(engine, "workspace_bytes")
                                    else 0),
        "kernels.tune_frac": _total(spans, "kernels.tune") / wall,
        "tensor.csf_build_frac": _total(spans, "tensor.csf_build") / wall,
        "sparse.mttkrp_frac": sum(s.seconds for s in sparse) / wall,
        "sparse.call_frac": len(sparse) / len(mttkrp),
        "sparse.update_factor_s": _total(spans, "sparse.update_factor"),
        "admm.update_s": _total(spans, "admm.update"),
        "admm.updates": len(admm),
        "admm.update_ms_p50": 1e3 * statistics.median(
            s.seconds for s in admm),
        "admm.inner_iters": _total(spans, "admm.update", "iterations"),
        "admm.block_row_iters": _total(spans, "admm.update",
                                       "row_iterations"),
        "admm.cap_hit_frac": _total(spans, "admm.update", "capped") / blocks,
        "linalg.gram_s": sum(own[s.id] for s in main
                             if s.name == "linalg.gram"),
        "tensor.slab_load_frac": _total(spans, "tensor.slab_load") / wall,
        "tensor.slab_loads": slab["loads"],
        "tensor.slab_hit_ratio": slab["hits"] / lookups if lookups else 0.0,
        "robustness.checkpoint_frac": (
            _total(spans, "robustness.checkpoint") / wall),
        "robustness.checkpoint_bytes": _total(spans, "robustness.checkpoint",
                                              "bytes"),
        "core.driver_self_s": driver_self,
        "core.fit_s": wall,
    }

    problems = []
    accounted = sum(layer_self.values()) + driver_self
    if abs(accounted - wall) > ACCOUNTING_TOLERANCE * wall:
        problems.append(f"layer self times + core.driver_self_s = "
                        f"{accounted:.4f} s but the fit took {wall:.4f} s")
    stages = {
        "kernels.mttkrp_s": sum(r.mttkrp_seconds for r in trace.records),
        "admm.update_s": sum(r.admm_seconds for r in trace.records),
    }
    for name, stage in stages.items():
        if abs(metrics[name] - stage) > ACCOUNTING_TOLERANCE * stage:
            problems.append(f"{name} = {metrics[name]:.4f} s but the fit's "
                            f"trace reports {stage:.4f} s")
    return metrics, problems
