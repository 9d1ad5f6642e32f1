"""Request tracing: per-request span trees across threads and processes.

Every request entering the serving stack gets a **trace id** — minted by
the daemon's front end, or supplied by the client and carried in the
protocol envelope — and a :class:`RequestTrace` that records **spans** as
the request crosses the asyncio loop, the mutation/read dispatch threads
and the WAL append path.  The result is a span
tree: ``finish()`` returns a JSON-encodable nesting of
``{name, ms, tags, children}`` that the daemon attaches to the request's
event-log record, making every request queryable by id after the fact
(``repro trace <id>``).

Two integration styles, by how far the instrumented code is from the
request:

* code that *has* the trace object uses :meth:`RequestTrace.span`
  directly (the daemon's dispatch path);
* deep layers that must not know about serving (the write-ahead log)
  call :func:`hook_span`, which attributes the measurement to whatever
  trace is *active on the current thread* (:func:`activate`) and costs
  one attribute check when none is.

A trace is touched by one thread at a time (the daemon awaits its
dispatch executors), so spans need no locking; :func:`activate` is
thread-local, so concurrent requests on different threads never see each
other's traces.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "RequestTrace",
    "Span",
    "activate",
    "current_trace",
    "hook_span",
    "mint_trace_id",
]


def mint_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed step of a request, with optional nested children."""

    __slots__ = ("name", "started_at", "ms", "tags", "children", "_t0")

    def __init__(self, name: str, **tags: Any) -> None:
        self.name = name
        #: wall-clock start (epoch seconds) — correlates with event records
        self.started_at = time.time()
        self._t0 = time.perf_counter()
        self.ms: float = 0.0
        self.tags: Dict[str, Any] = tags
        self.children: List["Span"] = []

    def close(self) -> None:
        self.ms = (time.perf_counter() - self._t0) * 1e3

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"name": self.name, "ms": round(self.ms, 3)}
        if self.tags:
            entry["tags"] = dict(self.tags)
        if self.children:
            entry["children"] = [child.to_dict() for child in self.children]
        return entry


class RequestTrace:
    """The span tree of one request.

    ``enabled=False`` keeps the trace id (the envelope still echoes it)
    but makes every recording call a no-op — what a daemon without an
    event log builds, since nothing would journal the tree.
    """

    __slots__ = ("trace_id", "op", "enabled", "root", "_stack")

    def __init__(self, trace_id: str, op: str, enabled: bool = True) -> None:
        self.trace_id = trace_id
        self.op = op
        self.enabled = enabled
        self.root = Span(op) if enabled else None
        self._stack: List[Span] = [self.root] if enabled else []

    @contextmanager
    def span(self, name: str, **tags: Any) -> Iterator[Optional[Span]]:
        """Record one nested span around the with-block."""
        if not self.enabled:
            yield None
            return
        span = Span(name, **tags)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.close()
            self._stack.pop()

    def add_span(self, name: str, ms: float, **tags: Any) -> None:
        """Attach one externally measured span at the current nesting."""
        if not self.enabled:
            return
        span = Span(name, **tags)
        span.ms = float(ms)
        self._stack[-1].children.append(span)

    def finish(self) -> Optional[Dict[str, Any]]:
        """Close the root span and return the span tree (``None`` if disabled)."""
        if not self.enabled:
            return None
        self.root.close()
        return self.root.to_dict()


# -- thread-local activation (for hook spans deep below the dispatch layer) --------

_tls = threading.local()


@contextmanager
def activate(trace: Optional[RequestTrace]) -> Iterator[None]:
    """Make ``trace`` the current thread's active trace for the block."""
    previous = getattr(_tls, "trace", None)
    _tls.trace = trace
    try:
        yield
    finally:
        _tls.trace = previous


def current_trace() -> Optional[RequestTrace]:
    """The trace active on this thread, if any."""
    return getattr(_tls, "trace", None)


@contextmanager
def hook_span(name: str, **tags: Any) -> Iterator[None]:
    """A span against the thread's active trace; free when none is active.

    The instrumentation point for layers that must not depend on the
    serving stack (:meth:`WriteAheadLog.append_record` and friends):
    outside a traced request the cost is one thread-local read.
    """
    trace = getattr(_tls, "trace", None)
    if trace is None or not trace.enabled:
        yield
        return
    with trace.span(name, **tags):
        yield
