"""Heartbeat watchdog: detect and interrupt stalled factorizations.

AO-ADMM's per-outer-iteration cost is essentially constant — the same
Grams, the same MTTKRPs, the same inner solves against a static sparsity
pattern (Huang/Sidiropoulos/Liavas) — which makes a *stall* sharply
detectable: when the time since the last completed iteration exceeds a
small multiple of the run's own moving per-iteration estimate, the fit
is not "slow", it is wedged (a read blocked on a dead mount, a
kernel spinning on poisoned state).

:class:`Watchdog` owns a daemon thread fed by per-outer-iteration
heartbeats (the supervisor wires them from the observability layer's
``iteration`` events).  On expiry it interrupts the fit thread by
injecting :class:`FitStalled` asynchronously (CPython's
``PyThreadState_SetAsyncExc``), which unwinds the driver at the next
bytecode boundary — including out of an injected stall's short sleep
ticks — so the supervisor can quarantine the attempt
and resume from the last checkpoint.
"""

from __future__ import annotations

import ctypes
import threading
import time
from collections import deque
from typing import Callable

from ..validation import require


class FitStalled(RuntimeError):
    """Raised (asynchronously) inside a fit the watchdog declared stalled."""


def _async_raise(thread_id: int, exc_type: type[BaseException]) -> bool:
    """Inject *exc_type* into the thread with *thread_id* (CPython only).

    Returns ``False`` when the interpreter refuses (unknown thread id —
    e.g. the fit already returned); over-delivery is undone per the
    C-API contract.
    """
    res = ctypes.pythonapi.PyThreadState_SetAsyncExc(
        ctypes.c_ulong(thread_id), ctypes.py_object(exc_type))
    if res > 1:  # pragma: no cover - C-API contract, not reachable here
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_id), None)
        return False
    return res == 1


class Watchdog:
    """A moving-estimate iteration deadline enforced by a monitor thread.

    Parameters
    ----------
    stall_factor:
        The deadline is ``stall_factor`` times the moving mean of the
        last *window* iteration durations — generous enough that cache
        effects and repr rebuilds never false-positive, tight enough
        that a wedged pool is caught within a few iteration times.
    min_deadline_seconds:
        Deadline floor; also the grace period before the first
        heartbeat (setup: CSF builds, pool spawn).
    window:
        Heartbeat intervals kept in the moving estimate.
    poll_seconds:
        Monitor thread wake-up period.
    on_stall:
        Called once (from the monitor thread) when a stall is declared,
        *instead of* the default interrupt — tests use this; the
        supervisor keeps the default, which injects :class:`FitStalled`
        into the watched thread.
    clock:
        Injectable monotonic time source.
    """

    def __init__(self, stall_factor: float = 8.0,
                 min_deadline_seconds: float = 5.0,
                 window: int = 5,
                 poll_seconds: float = 0.05,
                 on_stall: "Callable[[float], None] | None" = None,
                 clock: Callable[[], float] = time.monotonic):
        require(stall_factor > 1.0, "stall_factor must exceed 1")
        require(min_deadline_seconds > 0.0,
                "min_deadline_seconds must be positive")
        require(window >= 1, "window must be at least 1")
        self.stall_factor = float(stall_factor)
        self.min_deadline = float(min_deadline_seconds)
        self.window = int(window)
        self.poll_seconds = float(poll_seconds)
        self._on_stall = on_stall
        self._clock = clock
        self._intervals: deque[float] = deque(maxlen=self.window)
        self._lock = threading.Lock()
        self._last_beat: float | None = None
        self._beats = 0
        self._target_thread_id: int | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: True once this watchdog declared (and acted on) a stall.
        self.stalled = False
        #: Seconds past the deadline when the stall was declared.
        self.stall_overshoot = 0.0

    # ------------------------------------------------------------------
    @property
    def beats(self) -> int:
        return self._beats

    def estimate(self) -> float | None:
        """Moving mean of the recent iteration durations (None = no data)."""
        with self._lock:
            if not self._intervals:
                return None
            return sum(self._intervals) / len(self._intervals)

    def deadline_seconds(self) -> float:
        """Current stall deadline (floor until enough heartbeats arrive)."""
        est = self.estimate()
        if est is None:
            return self.min_deadline
        return max(self.min_deadline, self.stall_factor * est)

    def beat(self) -> None:
        """One outer iteration completed (any thread may call this)."""
        now = self._clock()
        with self._lock:
            if self._last_beat is not None:
                self._intervals.append(now - self._last_beat)
            self._last_beat = now
            self._beats += 1

    # ------------------------------------------------------------------
    def start(self, target_thread_id: int | None = None) -> "Watchdog":
        """Arm the watchdog over the thread with *target_thread_id*.

        Defaults to the calling thread — the one about to run the fit.
        """
        require(self._thread is None, "watchdog already started")
        self._target_thread_id = (target_thread_id
                                  if target_thread_id is not None
                                  else threading.get_ident())
        self._last_beat = self._clock()  # setup counts against the grace
        self._thread = threading.Thread(target=self._monitor,
                                        name="repro-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Disarm (idempotent); joins the monitor thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _monitor(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            with self._lock:
                last = self._last_beat
            if last is None:
                continue
            elapsed = self._clock() - last
            deadline = self.deadline_seconds()
            if elapsed <= deadline:
                continue
            self.stalled = True
            self.stall_overshoot = elapsed - deadline
            if self._on_stall is not None:
                self._on_stall(elapsed)
            else:
                assert self._target_thread_id is not None
                _async_raise(self._target_thread_id, FitStalled)
            return
