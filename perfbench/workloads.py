"""The four workloads and the inputs each one builds from its seed.

Every workload fits a scaled preset of one Table-I dataset from a
single process, one fit at a time (a closed loop with one client), with
the library defaults (``threads=1``, ``observe=False``) except where the
table says otherwise.  A callback stops each fit once the relative
error reaches the workload's target.

The seed draws the initial factors, different ones for each fit of a
run, so a run's medians cover several starting points.  The tensor is
the preset generated (untimed) from the fixed ``DATASET_SEED``: from
one generated tensor to the next the inner-ADMM work of a fit varies
twofold (NELL ``small``, tensor seeds 11-15: 89k to 170k block
iterations over two outer iterations), while from one initialization
to the next on a fixed tensor it varies by under a fifth.

The synthetic datasets carry a fixed share of unstructured energy, so
each converges within a few outer iterations to an error floor near
``sqrt(unstructured_energy)``.  Each target below sits above the error
the second outer iteration reached in every trial (tensor seeds 1-20 of
the ``small`` presets; initial-factor seeds 11-20 on the ``tiny`` NELL
tensor), and a fit is stopped no earlier than that iteration, so every
fit times at least one warm iteration and ``outer_iters`` is 2.  The
iteration cap (``max_outer_iterations``) is twice that.  Why each
workload exists is recorded in ``BENCHMARK.json``.

NELL uses the ``tiny`` preset: on ``small`` one fit takes 6-11 s of
pure-Python block loops, so a run holds only three fits and a slow
spell of the shared machine moves its median by a third; on ``tiny`` a
fit takes 1-2 s and is still over 90% inner ADMM.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

DATASET_SEED = 1
#: Outer iterations every fit runs before the target is checked.
MIN_OUTER_ITERATIONS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    rank: int
    constraints: str
    blocked: bool
    target_error: float
    max_outer_iterations: int
    preset: str = "small"
    repr_policy: str = "dense"
    #: Fit from a ``ShardedTensorStore`` holding a quarter of its bytes
    #: in core, checkpointing every iteration (keeping the newest two).
    out_of_core: bool = False

    def reached(self, record) -> bool:
        """Whether the fit may stop after the iteration in *record*."""
        return (record.iteration >= MIN_OUTER_ITERATIONS
                and record.relative_error <= self.target_error)


WORKLOADS = {w.name: w for w in (
    Workload("nell-admm", "nell", rank=16, constraints="nonneg",
             blocked=True, preset="tiny", target_error=0.545,
             max_outer_iterations=4),
    Workload("patents-mttkrp", "patents", rank=32, constraints="nonneg",
             blocked=True, target_error=0.554, max_outer_iterations=4),
    Workload("reddit-sparse", "reddit", rank=16, constraints="nonneg_l1",
             blocked=False, repr_policy="auto", target_error=0.8625,
             max_outer_iterations=4),
    Workload("amazon-ooc", "amazon", rank=16, constraints="nonneg",
             blocked=True, out_of_core=True, target_error=0.659,
             max_outer_iterations=4),
)}


class Instance:
    """One workload's inputs for one seed, plus its set-up and fit calls.

    *workdir* is a private scratch directory; out-of-core stores and
    checkpoints live under it.
    """

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        from repro.datasets.synthetic import generate_dataset

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tensor, _ = generate_dataset(workload.dataset,
                                          workload.preset, DATASET_SEED)
        self.budget: int | None = None
        self._store_dir: Path | None = None
        self._setups = 0

    def options(self, callback=None, checkpoint_path=None, fit: int = 0):
        """Options of fit number *fit*, whose initial factors it picks."""
        import numpy as np

        from repro.core.options import AOADMMOptions

        w = self.workload
        init_seed = int(np.random.SeedSequence((self.seed, fit))
                        .generate_state(1)[0])
        extra = {}
        if w.out_of_core:
            extra["max_bytes_in_core"] = self.budget
        if checkpoint_path is not None:
            extra.update(checkpoint_every=1, checkpoint_keep_last=2,
                         checkpoint_path=checkpoint_path)
        return AOADMMOptions(rank=w.rank, constraints=w.constraints,
                             blocked=w.blocked, repr_policy=w.repr_policy,
                             seed=init_seed,
                             max_outer_iterations=w.max_outer_iterations,
                             callback=callback, **extra)

    def make_engine(self, source, options):
        """The engine ``fit_aoadmm`` would build for *options*."""
        from repro.kernels.dispatch import make_engine

        return make_engine(source, repr_policy=options.repr_policy,
                           sparsity_threshold=options.sparsity_threshold,
                           tol=options.factor_zero_tol,
                           threads=options.threads,
                           slab_nnz_target=options.slab_nnz_target,
                           executor=options.executor,
                           max_bytes_in_core=options.max_bytes_in_core,
                           rank=options.rank, tune=options.tune)

    def setup(self) -> float:
        """Seconds from the in-memory COO tensor to a ready engine.

        Out of core this shards a fresh store to disk, opens it under
        the byte budget and builds the streaming engine; the newest
        store serves the fits.
        """
        from repro.tensor.store import ShardedTensorStore, open_tensor

        if not self.workload.out_of_core:
            start = time.perf_counter()
            engine = self.make_engine(self.tensor, self.options())
            seconds = time.perf_counter() - start
            engine.close()
            return seconds
        self._setups += 1
        path = self.workdir / f"store{self._setups}"
        start = time.perf_counter()
        created = ShardedTensorStore.create(self.tensor, path)
        self.budget = created.storage_bytes() // 4
        store = open_tensor(path, max_bytes_in_core=self.budget)
        engine = self.make_engine(store, self.options())
        seconds = time.perf_counter() - start
        engine.close()
        store.close()
        created.close()
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir)
        self._store_dir = path
        return seconds

    def source(self):
        """What one fit factorizes: the COO tensor, or a fresh store handle.

        A fresh handle per fit makes every fit pay the checksum of its
        first touch of each slab, as a new process would.
        """
        if not self.workload.out_of_core:
            return self.tensor
        from repro.tensor.store import open_tensor

        return open_tensor(self._store_dir, max_bytes_in_core=self.budget)
