"""Graceful SIGTERM/SIGINT preemption for a checkpointed fit.

:func:`preempt_on_signals` turns the two signals a scheduler or a user
sends to stop a job into a set :class:`threading.Event`.  Pass that
event as ``AOADMMOptions.preempt_flag``: the driver finishes the outer
iteration in flight, writes a final checkpoint (when checkpointing is
configured) and returns with ``stop_reason="preempted"``.  Running
again with ``resume_from`` the same checkpoint path continues
bit-identically.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator

#: The signals that request a graceful stop.
PREEMPT_SIGNALS = (signal.SIGTERM, signal.SIGINT)


@contextmanager
def preempt_on_signals() -> Iterator[threading.Event]:
    """Set the yielded event on SIGTERM/SIGINT; restore handlers on exit.

    Python installs signal handlers only from the main thread; elsewhere
    this raises ``ValueError``.
    """
    flag = threading.Event()
    previous = {signum: signal.signal(signum, lambda *_args: flag.set())
                for signum in PREEMPT_SIGNALS}
    try:
        yield flag
    finally:
        for signum, handler in previous.items():
            # ``None`` marks a handler installed outside Python.
            signal.signal(signum,
                          signal.SIG_DFL if handler is None else handler)
