"""A bounded priority queue with lazy deletion, for online top-K retention.

Algorithms 4 and 5 of the paper describe CEP and CNP/RCNP with a *min-heap of
bounded size*: pushing beyond capacity evicts the lowest-weighted element and
exposes the new minimum as the admission threshold.  The batch algorithms no
longer run on it — a bounded queue retains a prefix of a strict total order,
so :mod:`repro.core.pruning.kernels` selects that prefix with one sort — and
the queue has one user left: the streaming session's online top-K policy
(``OnlineTopK`` in :mod:`repro.incremental.session`), which sees pairs one at
a time and has to retract them.  ``tests/reference.py`` keeps the queue
bodies of the batch algorithms as the oracle the kernels are checked against.

Two properties matter beyond the textbook structure:

* **Deterministic tie-breaking.**  Equal weights are ordered by an explicit
  *tie key* supplied with each push (smaller key wins; larger keys are
  evicted first).  Callers pass the packed candidate key
  ``left * total + right``, which makes the retained set a pure function of
  the ``(weight, pair)`` multiset — independent of insertion order, and the
  same set the batch kernels' (weight desc, key asc) sort selects.
  Without an explicit key the insertion counter is used, preserving the old
  earlier-insertions-win behaviour.
* **Lazy deletion.**  :meth:`BoundedTopQueue.discard` retracts an item
  without an O(n) heap rebuild: the item is tombstoned and dead entries are
  skimmed off the heap top whenever the minimum is consulted.  The streaming
  session uses this to evict the pairs of a deleted entity from its online
  top-K policy.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

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
        #: live multiplicity per item (entries in the heap minus tombstones)
        self._live: Dict[T, int] = {}
        #: pending tombstones per item, consumed as entries surface
        self._dead: Dict[T, int] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, item: object) -> bool:
        return self._live.get(item, 0) > 0  # type: ignore[arg-type]

    # -- internal bookkeeping ---------------------------------------------------
    def _drop_live(self, item: T) -> None:
        count = self._live.get(item, 0) - 1
        if count > 0:
            self._live[item] = count
        else:
            self._live.pop(item, None)

    def _skim_dead(self) -> None:
        """Pop tombstoned entries off the heap top until it is live."""
        heap = self._heap
        dead = self._dead
        while heap:
            item = heap[0][3]
            pending = dead.get(item, 0)
            if pending == 0:
                return
            heapq.heappop(heap)
            if pending > 1:
                dead[item] = pending - 1
            else:
                del dead[item]

    @property
    def min_weight(self) -> float:
        """The lowest weight currently retained (0.0 when not yet full).

        This is the ``minp`` admission threshold of Algorithms 4/5: a new item
        is worth pushing only if its weight exceeds it once the queue is full.
        """
        if self._size < self.capacity:
            return 0.0
        self._skim_dead()
        return self._heap[0][0]

    def push(self, weight: float, item: T, key: Optional[int] = None) -> Optional[T]:
        """Insert ``item``; return the evicted item when capacity is exceeded.

        Parameters
        ----------
        weight:
            The item's weight; higher weights are retained preferentially.
        item:
            The payload (any hashable value).
        key:
            Deterministic tie key: among equal weights, the entry with the
            *largest* key is evicted first, so smaller keys survive
            regardless of insertion order.  Defaults to the insertion
            counter, under which earlier insertions survive.
        """
        sequence = next(self._counter)
        entry = (weight, -(sequence if key is None else key), -sequence, item)
        if self._size < self.capacity:
            heapq.heappush(self._heap, entry)
            self._live[item] = self._live.get(item, 0) + 1
            self._size += 1
            return None
        self._skim_dead()
        if entry <= self._heap[0]:
            return item
        evicted = heapq.heappushpop(self._heap, entry)[3]
        self._drop_live(evicted)
        self._live[item] = self._live.get(item, 0) + 1
        return evicted

    def discard(self, item: T) -> bool:
        """Lazily retract one occurrence of ``item``; ``False`` if absent.

        The heap entry is tombstoned, not searched for: the cost is O(1) now
        and O(log n) amortised when the dead entry surfaces at the heap top.
        Discarding an item that is not in the queue is a no-op — the queue's
        aggregates are never corrupted by an unknown eviction.
        """
        if self._live.get(item, 0) == 0:
            return False
        self._drop_live(item)
        self._dead[item] = self._dead.get(item, 0) + 1
        self._size -= 1
        return True

    def _live_entries(self) -> List[Tuple[float, int, int, T]]:
        """The heap entries that are not tombstoned (unordered)."""
        pending = dict(self._dead)
        entries: List[Tuple[float, int, int, T]] = []
        # walk in heap order so tombstones are consumed against the lowest
        # (i.e. first-evicted) entries of each item, matching _skim_dead
        for entry in sorted(self._heap):
            item = entry[3]
            remaining = pending.get(item, 0)
            if remaining:
                pending[item] = remaining - 1
                continue
            entries.append(entry)
        return entries

    def _ordered_entries(self) -> List[Tuple[float, int, int, T]]:
        """Live entries strongest first: weight desc, then tie key asc."""
        return sorted(
            self._live_entries(), key=lambda entry: (-entry[0], -entry[1], -entry[2])
        )

    def items(self) -> List[T]:
        """Return retained items ordered by decreasing weight."""
        return [entry[3] for entry in self._ordered_entries()]

    def weighted_items(self) -> List[Tuple[float, T]]:
        """Return (weight, item) tuples ordered by decreasing weight."""
        return [(entry[0], entry[3]) for entry in self._ordered_entries()]

    def __iter__(self) -> Iterator[T]:
        return iter(self.items())
