"""A fixed reference computation, timed beside every untraced fit.

The benchmark runs on a few cores of a shared host whose speed drifts:
the same fit takes a quarter longer in one minute than in the next, so
fit times from two runs differ by more than any regression worth
catching.  The reference measures the host's speed at the moment a fit
runs.  It is a fixed NumPy workload that calls nothing under ``src/``,
in the two shapes a fit spends its time in:

* a gather, scale and segmented sum over a CSF-like layout, the
  memory-bound shape of MTTKRP;
* a Python loop of small dense solves, the shape of the inner ADMM.

A run's median fit time divided by its median reference time is about
the same on a slow host as on a fast one, while a change to the program
moves it as much as it moves the fits.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Timings per measurement; the measurement is their median.
REPS = 5
#: Small solves per timing, sized so the loop takes about as long as
#: the segmented sum.
SOLVES = 1200
_SEED = 2017


class Reference:
    """The reference inputs, built once per run from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_SEED)
        nnz, rows, rank, fibers = 50_000, 4_000, 32, 2_000
        self._index = rng.integers(0, rows, nnz)
        self._values = rng.random(nnz)
        self._factor = rng.random((rows, rank))
        self._starts = np.concatenate(([0], np.sort(rng.choice(
            np.arange(1, nnz), fibers - 1, replace=False))))
        gram = rng.random((16, 16))
        self._gram = gram @ gram.T + 16.0 * np.eye(16)
        self._rhs = rng.random((16, 4))

    def _once(self) -> float:
        start = time.perf_counter()
        rows = self._factor[self._index]
        rows *= self._values[:, None]
        np.add.reduceat(rows, self._starts, axis=0)
        for _ in range(SOLVES):
            np.linalg.solve(self._gram, self._rhs)
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median wall time of ``REPS`` runs of the reference."""
        return statistics.median(self._once() for _ in range(REPS))
