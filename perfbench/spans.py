"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name (``<layer>.<what>``), start
and end on ``time.perf_counter``, the span that was open on the same
thread when it began (its parent), the fit it belongs to, the thread
it ran on, and a few counts attached after the call returned.  Spans
stay in memory until :meth:`Recorder.dump` writes them once, at the end
of the run.

A span's parent is always on its own thread.  Self time is a span's
duration minus the durations of its children.  A span started on
another thread (the out-of-core slab prefetch) has no parent and runs
concurrently with the main thread, so it is kept out of the main
thread's blocking-time accounting; its layer still reports its
duration.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    fit: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread; one fit id is current at a time."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fit: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as span *name*; yields the span."""
        stack = self._stack()
        with self._lock:
            sp = Span(id=len(self.spans), name=name, start=0.0, end=0.0,
                      parent=stack[-1].id if stack else None,
                      fit=self.fit, thread=threading.get_ident(),
                      attrs=dict(attrs))
            self.spans.append(sp)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()

    def of_fit(self, fit: int) -> list[Span]:
        return [s for s in self.spans if s.fit == fit]

    def dump(self, path: Path, header: dict) -> None:
        """Write every span (and the run header) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"header": header, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc))


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus its children's durations."""
    out = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.seconds
    return out
