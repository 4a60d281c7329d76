"""Execution backends behind the ``parallel_for`` / ``threads`` interface.

Two executors, selected with ``REPRO_EXECUTOR`` (or the ``executor=``
knob on :class:`~repro.kernels.dispatch.MTTKRPEngine` /
:class:`~repro.core.options.AOADMMOptions` / ``repro.fit``):

``serial``
    Inline loops, no pool of any kind.  The baseline the thread
    executor must match bit-for-bit.
``thread``
    A :class:`ThreadPoolExecutor` reused across calls: the in-core
    tiled MTTKRP kernels fan their slabs out over it, and so does the
    compiled blocked ADMM loop its chunks of row blocks; its
    ``submit_one`` runs the out-of-core slab prefetch on a background
    thread, since file I/O releases the GIL.

Executors resolved by *name* are process-wide singletons.  Results are
bit-identical across both executors and every worker count — that
contract is enforced by the differential harness's family anchors.
"""

from __future__ import annotations

import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from ..validation import require
from .threadpool import effective_threads

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable naming the default executor.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Executor used when neither knob nor environment chooses one.
DEFAULT_EXECUTOR = "thread"

EXECUTOR_NAMES = ("serial", "thread")


class _ImmediateResult:
    """A future-shaped wrapper around an already-computed value.

    ``submit_one`` on executors without an async path runs the task
    inline and hands the caller one of these, so call sites can always
    write ``future = ex.submit_one(...); ... ; future.result()``.
    """

    __slots__ = ("_value", "_error")

    def __init__(self, value=None, error: BaseException | None = None):
        self._value = value
        self._error = error

    def result(self, timeout: float | None = None):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True


class ExecutorBase:
    """Common interface: a named ``parallel_for`` implementation."""

    name: str = "?"

    def parallel_for(self, func: Callable[[T], R], items: Sequence[T],
                     threads: int | None = None) -> list[R]:
        """Apply *func* to every item; results come back in input order.

        *items* may be any iterable (it is normalized with one
        ``list()`` up front).
        """
        raise NotImplementedError

    def workers(self, n_items: int, threads: int | None = None) -> int:
        """Threads :meth:`parallel_for` puts to work on *n_items* items
        (1 when they run inline)."""
        return 1

    def submit_one(self, func: Callable[..., R], *args):
        """Submit a single task; returns a future-like with ``result()``.

        The base implementation runs inline (serial semantics).  Used
        by the out-of-core slab streamer to prefetch the next slab's
        disk read while the parent computes on the current one.
        """
        try:
            return _ImmediateResult(func(*args))
        except BaseException as exc:  # noqa: BLE001 - future semantics
            return _ImmediateResult(error=exc)

    def close(self) -> None:
        """Release pooled resources (idempotent; no-op by default)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class SerialExecutor(ExecutorBase):
    """Inline execution regardless of the requested thread count."""

    name = "serial"

    def parallel_for(self, func, items, threads=None):
        return [func(item) for item in list(items)]


class ThreadExecutor(ExecutorBase):
    """The GIL-sharing thread pool (see :mod:`repro.parallel.threadpool`).

    :meth:`parallel_for` runs on one lazy pool per worker count, kept
    for the executor's lifetime, so repeated kernel calls reuse their
    worker threads instead of starting and joining new ones.  One
    worker or at most one item runs inline.  ``submit_one`` runs on a
    small pool of its own: slab prefetch is file I/O — ``np.memmap``
    open plus page-in — which releases the GIL, and it must not queue
    behind compute.  Every pool is created on first use and torn down
    in :meth:`close`.
    """

    name = "thread"

    def __init__(self) -> None:
        self._pools: dict[str, ThreadPoolExecutor] = {}
        self._lock = threading.Lock()

    def _pool(self, key: str, workers: int) -> ThreadPoolExecutor:
        pool = self._pools.get(key)
        if pool is None:
            with self._lock:
                pool = self._pools.get(key)
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=workers,
                        thread_name_prefix=f"repro-{self.name}-{key}")
                    self._pools[key] = pool
        return pool

    def workers(self, n_items, threads=None):
        return 1 if n_items <= 1 else min(n_items, effective_threads(threads))

    def parallel_for(self, func, items, threads=None):
        items = list(items)
        if self.workers(len(items), threads) == 1:
            return [func(item) for item in items]
        size = effective_threads(threads)
        return list(self._pool(f"w{size}", size).map(func, items))

    def submit_one(self, func, *args):
        try:
            return self._pool("io", 2).submit(func, *args)
        except RuntimeError:
            # Pool shut down underneath us (interpreter teardown);
            # degrade to inline execution.
            return ExecutorBase.submit_one(self, func, *args)

    def close(self) -> None:
        with self._lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.shutdown(wait=False, cancel_futures=True)


_SINGLETONS: dict[str, ExecutorBase] = {}
_SINGLETON_LOCK = threading.Lock()


def get_executor(name: str) -> ExecutorBase:
    """The process-wide singleton executor called *name*."""
    require(name in EXECUTOR_NAMES,
            f"unknown executor {name!r}; choose from {EXECUTOR_NAMES} "
            f"(or set {EXECUTOR_ENV_VAR})")
    with _SINGLETON_LOCK:
        ex = _SINGLETONS.get(name)
        if ex is None:
            ex = {"serial": SerialExecutor, "thread": ThreadExecutor}[name]()
            _SINGLETONS[name] = ex
        return ex


#: Malformed ``REPRO_EXECUTOR`` values already warned about (warn once
#: per value per process — the hot path resolves executors constantly).
_WARNED_ENV_VALUES: set[str] = set()


def resolve_executor(spec: "str | ExecutorBase | None" = None
                     ) -> ExecutorBase:
    """Resolve *spec*: instance → itself; name → singleton; ``None`` →
    ``REPRO_EXECUTOR`` or the ``thread`` default.

    A malformed *explicit* name raises; a malformed **environment**
    value only warns (once per value) and falls back to the default —
    a typo in a shell profile must not turn every library call into a
    crash (mirrors the ``REPRO_NUM_THREADS`` handling in
    :mod:`repro.parallel.threadpool`).
    """
    if isinstance(spec, ExecutorBase):
        return spec
    if spec is None:
        env_value = os.environ.get(EXECUTOR_ENV_VAR)
        if env_value and env_value not in EXECUTOR_NAMES:
            if env_value not in _WARNED_ENV_VALUES:
                _WARNED_ENV_VALUES.add(env_value)
                warnings.warn(
                    f"ignoring malformed {EXECUTOR_ENV_VAR}={env_value!r} "
                    f"(choose from {EXECUTOR_NAMES}); using "
                    f"{DEFAULT_EXECUTOR!r}",
                    RuntimeWarning, stacklevel=2)
            env_value = None
        spec = env_value or DEFAULT_EXECUTOR
    require(isinstance(spec, str),
            f"executor must be a name or ExecutorBase, got {type(spec)}")
    return get_executor(spec)


def shutdown_executors() -> None:
    """Close every singleton executor (tests / leak checks)."""
    with _SINGLETON_LOCK:
        for ex in _SINGLETONS.values():
            ex.close()
        _SINGLETONS.clear()


__all__ = [
    "EXECUTOR_ENV_VAR",
    "DEFAULT_EXECUTOR",
    "EXECUTOR_NAMES",
    "ExecutorBase",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "resolve_executor",
    "shutdown_executors",
]
