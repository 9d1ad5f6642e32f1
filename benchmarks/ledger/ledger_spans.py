"""Harness-side spans: layer boundaries recorded from outside the program.

The traced pass wraps each layer's *public* entry points (instance methods,
or a module-level function where the layer has no instance) with
:meth:`SpanRecorder.wrap`; nothing under ``src/`` knows it is being traced.
Spans are ``{name, start, end, parent, round}`` records kept in memory and
written out with the results file.  A layer's time is its spans' **self
time**: duration minus the part of that interval its child spans cover
(children may overlap — e.g. shard workers measured in parallel — so the
covered part is the length of the *union* of the clipped child intervals).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

#: a span is ``[name, start, end, parent index or None, round]``
Span = List[Any]
NAME, START, END, PARENT, ROUND = range(5)


def covered_length(
    intervals: Sequence[Tuple[float, float]], low: float, high: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    cursor = low
    for start, end in clipped:
        if end > cursor:
            total += end - max(start, cursor)
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, aligned with ``spans``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered_length(children.get(position, ()), span[START], span[END])
        for position, span in enumerate(spans)
    ]


def root_name(spans: Sequence[Span], position: int) -> str:
    """Name of the outermost ancestor of ``spans[position]`` (its phase)."""
    while spans[position][PARENT] is not None:
        position = spans[position][PARENT]
    return spans[position][NAME]


def layer_self_seconds(spans: Sequence[Span]) -> Dict[Tuple[int, str, str], float]:
    """Summed self time keyed by ``(round, phase, span name)``.

    The phase is the name of the span's root (``"ingest"`` or ``"answer"``:
    the harness opens one root span around every timed operation); a root's
    own self time is keyed under the name ``"op"`` — time inside a timed
    operation that no layer span covers.
    """
    totals: Dict[Tuple[int, str, str], float] = {}
    for position, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = "op" if span[PARENT] is None else span[NAME]
        key = (span[ROUND], root_name(spans, position), name)
        totals[key] = totals.get(key, 0.0) + own
    return totals


class SpanRecorder:
    """Records nested spans on one thread; off (and free) until enabled."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        #: round index stamped on every span opened from now on
        self.round = -1
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.round])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, position: int) -> None:
        self.spans[position][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block as one span (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        position = self._open(name)
        try:
            yield
        finally:
            self._close(position)

    def add_stages(self, stages: Sequence[Tuple[str, float]]) -> None:
        """Lay externally timed stages end to end inside the open span.

        For layers that report their own stage durations through a public
        timer (``PreparedBlocks.timer``): the stages become consecutive
        child spans starting at the parent's start.
        """
        if not self.enabled or not self._stack:
            return
        parent = self._stack[-1]
        cursor = self.spans[parent][START]
        for name, seconds in stages:
            self.spans.append([name, cursor, cursor + seconds, parent, self.round])
            cursor += seconds

    # -- wrapping ----------------------------------------------------------------
    def wrap(
        self, owner: Any, attribute: str, name: str, transient: bool = False
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``owner`` is an instance (the wrapper shadows the bound method), a
        module, or — for objects the program pickles into its snapshots,
        where an instance attribute would not survive — their class.
        :meth:`unwrap_all` restores every original, except on ``transient``
        owners: per-round objects that die with their round.
        """
        original = getattr(owner, attribute)
        had_own = attribute in getattr(owner, "__dict__", {})

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return original(*args, **kwargs)
            position = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(position)

        setattr(owner, attribute, wrapper)
        if transient:
            return

        def restore() -> None:
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

        self._restore.append(restore)

    def unwrap_all(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- export ------------------------------------------------------------------
    def as_dicts(self) -> List[Dict[str, Any]]:
        """Spans as ``{name, start, end, parent, round}`` dictionaries."""
        return [
            {
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT],
                "round": span[ROUND],
            }
            for span in self.spans
        ]
