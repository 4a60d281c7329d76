"""Thread-count resolution for the ``thread`` executor.

When threads help — and when they don't
---------------------------------------
CPython threads share the GIL, so a thread pool (the ``thread``
executor's ``parallel_for``, :mod:`repro.parallel.executor`) only
overlaps work that *releases* it.  NumPy releases the GIL inside
individual kernels, which is enough for coarse-grained work dominated
by large BLAS calls or by one compiled kernel call per item (the C
root-mode MTTKRP kernel of ``repro.kernels.native`` releases it for a
whole slab).  It is **not** enough for the NumPy slab MTTKRP kernels:
each slab is a chain of many small ``take`` / ``multiply`` /
``reduceat`` calls, and the interpreter re-acquires the GIL between
every one of them, so threads serialize on dispatch and add contention
on top (a 139-slab NumPy sweep once measured 94.7 ms on 1 thread and
133.6 ms on 4).  Whenever the compiled kernel is available it serves
the root mode instead, and then slab threads do overlap (see
``docs/parallelism.md``), and so does the compiled ADMM block loop,
which releases it for a whole chunk of row blocks.  The NumPy ADMM
active set re-takes the GIL between small operations the same way, so
it stays on one thread.
"""

from __future__ import annotations

import os
import warnings

_ENV_VAR = "REPRO_NUM_THREADS"

#: Malformed ``REPRO_NUM_THREADS`` values already warned about (warn
#: once per value, not once per call).
_WARNED_ENV_VALUES: set[str] = set()


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    reports one, else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def effective_threads(requested: int | None = None) -> int:
    """Resolve a thread count: argument, env var, then the usable cores.

    A malformed ``REPRO_NUM_THREADS`` (non-integer, or < 1) emits a
    ``RuntimeWarning`` once per value before falling through to
    :func:`usable_cores`.
    """
    if requested is not None and requested > 0:
        return int(requested)
    env = os.environ.get(_ENV_VAR)
    if env:
        try:
            value = int(env)
        except ValueError:
            value = None
        if value is not None and value > 0:
            return value
        if env not in _WARNED_ENV_VALUES:
            _WARNED_ENV_VALUES.add(env)
            warnings.warn(
                f"ignoring malformed {_ENV_VAR}={env!r} (expected a "
                f"positive integer); falling back to the usable cores",
                RuntimeWarning, stacklevel=2)
    return usable_cores()
