"""Retry primitives: backoff schedules, deadlines, and attempt budgets.

The supervisor (:mod:`repro.robustness.supervisor`) reacts to *transient*
failures — an allocation that lost a race against memory pressure, a
stalled loop, a checkpoint write hitting ``ENOSPC`` — by
waiting briefly and trying again.  The three primitives here keep that
logic deterministic and testable:

* :class:`Backoff` — an exponential delay schedule with a cap.  No
  randomized jitter: supervised runs must be replayable, and the process
  is retrying against *itself* (its own pool, its own disk), not against
  a shared remote service, so thundering-herd desynchronization buys
  nothing.
* :class:`Deadline` — a monotonic wall-clock budget shared by every
  attempt of one operation.
* :class:`RetryPolicy` — the attempt budget plus the transient-exception
  classification, combining both into :meth:`RetryPolicy.call`.

Time never comes from the wall clock directly: both ``sleep`` and
``clock`` are injectable, so the test suite drives whole retry storms in
microseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..validation import require


@dataclass(frozen=True)
class Backoff:
    """Exponential backoff: ``initial * multiplier**(attempt-1)``, capped.

    ``delay(1)`` is the wait after the *first* failure.  The schedule is
    fully deterministic — see the module docstring for why there is no
    jitter term.
    """

    initial: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        require(self.initial >= 0.0, "initial delay must be non-negative")
        require(self.multiplier >= 1.0, "multiplier must be >= 1")
        require(self.max_delay >= self.initial,
                "max_delay must be at least the initial delay")

    def delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number *attempt* (1-based)."""
        require(attempt >= 1, "attempts are 1-based")
        return min(self.initial * self.multiplier ** (attempt - 1),
                   self.max_delay)

    def delays(self, attempts: int) -> Iterator[float]:
        """The first *attempts* delays, in order (schedule inspection)."""
        return (self.delay(i) for i in range(1, attempts + 1))


class Deadline:
    """A wall-clock budget: ``None`` seconds means unbounded.

    Built on an injectable monotonic *clock* so tests can expire a
    deadline without sleeping.
    """

    def __init__(self, seconds: float | None,
                 clock: Callable[[], float] = time.monotonic):
        if seconds is not None:
            require(seconds > 0.0, "deadline must be positive")
        self.seconds = seconds
        self._clock = clock
        self._start = clock()

    def remaining(self) -> float:
        """Seconds left (``inf`` when unbounded; never below 0)."""
        if self.seconds is None:
            return float("inf")
        return max(0.0, self.seconds - (self._clock() - self._start))

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def clamp(self, delay: float) -> float:
        """*delay* shortened so a sleep can never overshoot the deadline."""
        return min(delay, self.remaining())


class RetryBudgetExceeded(RuntimeError):
    """Every retry attempt failed (last failure chained as ``__cause__``)."""

    def __init__(self, attempts: int, last: BaseException):
        self.attempts = attempts
        self.last = last
        super().__init__(
            f"operation failed after {attempts} attempt(s): "
            f"{type(last).__name__}: {last}")
        self.__cause__ = last


@dataclass
class RetryPolicy:
    """Bounded retries of an operation whose failures may be transient.

    Parameters
    ----------
    max_attempts:
        Total tries (first call included); ``1`` disables retrying.
    backoff:
        Delay schedule between attempts.
    transient:
        Exception classes worth retrying.  Anything else propagates
        immediately — a :class:`~repro.robustness.guards.
        NumericalFaultError` is a property of the *math*, and re-running
        the same math reproduces it, so it must never burn the budget.
    deadline_seconds:
        Optional wall-clock budget across all attempts.
    sleep, clock:
        Injectable time sources (tests pass fakes).
    """

    max_attempts: int = 3
    backoff: Backoff = field(default_factory=Backoff)
    transient: tuple[type[BaseException], ...] = (OSError, MemoryError)
    deadline_seconds: float | None = None
    sleep: Callable[[float], None] = time.sleep
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        require(self.max_attempts >= 1, "need at least one attempt")

    def is_transient(self, exc: BaseException) -> bool:
        return isinstance(exc, self.transient)

    def call(self, fn: Callable[[], object],
             on_retry: "Callable[[int, BaseException], None] | None" = None
             ) -> object:
        """Run ``fn()`` under this policy; returns its result.

        *on_retry* (if given) is invoked as ``on_retry(attempt, exc)``
        after each transient failure, before the backoff sleep — the
        supervisor uses it to emit guard events and metrics.
        """
        deadline = Deadline(self.deadline_seconds, clock=self.clock)
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except BaseException as exc:  # noqa: BLE001 - classified below
                if not self.is_transient(exc):
                    raise
                last = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                if attempt == self.max_attempts or deadline.expired:
                    break
                self.sleep(deadline.clamp(self.backoff.delay(attempt)))
        assert last is not None
        raise RetryBudgetExceeded(attempt, last)
