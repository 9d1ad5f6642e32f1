"""A bounded priority queue: the reference structure of CEP / CNP / RCNP.

Algorithms 4 and 5 of the paper describe CEP and CNP/RCNP with a *min-heap of
bounded size*: pushing beyond capacity evicts the lowest-weighted element and
exposes the new minimum as the admission threshold.  No algorithm of the
library runs on it — a bounded queue retains a prefix of a strict total
order, so :mod:`repro.core.pruning.kernels` selects that prefix with one sort
— and no ``src/`` module imports it: ``tests/reference.py`` keeps the queue
bodies of the batch algorithms on it, as the oracle the kernels are checked
against.

Equal weights are ordered by an explicit *tie key* supplied with each push
(smaller key wins; larger keys are evicted first).  Callers pass the packed
candidate key ``left * total + right``, which makes the retained set a pure
function of the ``(weight, pair)`` multiset — independent of insertion order,
and the same set the batch kernels' (weight desc, key asc) sort selects.
Without an explicit key the insertion counter is used, so earlier insertions
win.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class BoundedTopQueue(Generic[T]):
    """Keep the ``capacity`` items with the highest weights.

    Ties are broken by the ``key`` given to :meth:`push` (smaller keys win);
    without explicit keys, by insertion order (earlier insertions win).
    Either way the pruning is deterministic for equal weights.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        #: heap entries are ``(weight, -key, -seq, item)`` — the min-heap
        #: root is the worst retained entry: lowest weight, then largest
        #: tie key, then latest insertion
        self._heap: List[Tuple[float, int, int, T]] = []
        self._counter = itertools.count()

    @property
    def min_weight(self) -> float:
        """The lowest weight currently retained (0.0 when not yet full).

        This is the ``minp`` admission threshold of Algorithms 4/5: a new item
        is worth pushing only if its weight exceeds it once the queue is full.
        """
        if len(self._heap) < self.capacity:
            return 0.0
        return self._heap[0][0]

    def push(self, weight: float, item: T, key: Optional[int] = None) -> Optional[T]:
        """Insert ``item``; return the evicted item when capacity is exceeded.

        Parameters
        ----------
        weight:
            The item's weight; higher weights are retained preferentially.
        item:
            The payload (any value).
        key:
            Deterministic tie key: among equal weights, the entry with the
            *largest* key is evicted first, so smaller keys survive
            regardless of insertion order.  Defaults to the insertion
            counter, under which earlier insertions survive.
        """
        sequence = next(self._counter)
        entry = (weight, -(sequence if key is None else key), -sequence, item)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
            return None
        if entry <= self._heap[0]:
            return item
        return heapq.heappushpop(self._heap, entry)[3]

    def _ordered_entries(self) -> List[Tuple[float, int, int, T]]:
        """Retained entries strongest first: weight desc, then tie key asc."""
        return sorted(self._heap, key=lambda entry: (-entry[0], -entry[1], -entry[2]))

    def items(self) -> List[T]:
        """Return retained items ordered by decreasing weight."""
        return [entry[3] for entry in self._ordered_entries()]

    def weighted_items(self) -> List[Tuple[float, T]]:
        """Return (weight, item) tuples ordered by decreasing weight."""
        return [(entry[0], entry[3]) for entry in self._ordered_entries()]
