"""Candidate pairs and candidate sets.

After redundancy removal, every distinct pair of entities co-occurring in at
least one block becomes a *candidate pair* (a comparison).  The
:class:`CandidateSet` stores the distinct pairs in two parallel NumPy arrays
(left node ids, right node ids), which keeps downstream feature generation
and pruning vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from .block import BlockCollection
from .entity import EntityIndexSpace


@dataclass(frozen=True)
class CandidatePair:
    """A single comparison between two entities, referenced by node id."""

    left: int
    right: int

    def canonical(self) -> "CandidatePair":
        """Return the pair with the smaller node id first."""
        if self.left <= self.right:
            return self
        return CandidatePair(self.right, self.left)


class CandidateSet:
    """The distinct candidate pairs of a block collection.

    Parameters
    ----------
    left, right:
        Parallel integer arrays of node ids; pair ``k`` is
        ``(left[k], right[k])`` with ``left[k] < right[k]``.
    index_space:
        The node id space the pairs refer to.
    """

    def __init__(
        self,
        left: np.ndarray,
        right: np.ndarray,
        index_space: EntityIndexSpace,
    ) -> None:
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        if left.shape != right.shape:
            raise ValueError("left/right arrays must have the same shape")
        if left.size and np.any(left >= right):
            raise ValueError("candidate pairs must be canonical (left < right)")
        self.left = left
        self.right = right
        self.index_space = index_space
        self._position: Optional[Dict[Tuple[int, int], int]] = None

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        index_space: EntityIndexSpace,
    ) -> "CandidateSet":
        """Build a candidate set from (possibly repeated) pair tuples."""
        unique: Set[Tuple[int, int]] = set()
        for i, j in pairs:
            if i == j:
                raise ValueError("a candidate pair cannot relate an entity to itself")
            unique.add((i, j) if i < j else (j, i))
        ordered = sorted(unique)
        if ordered:
            left = np.fromiter((p[0] for p in ordered), dtype=np.int64, count=len(ordered))
            right = np.fromiter((p[1] for p in ordered), dtype=np.int64, count=len(ordered))
        else:
            left = np.empty(0, dtype=np.int64)
            right = np.empty(0, dtype=np.int64)
        return cls(left, right, index_space)

    @classmethod
    def from_blocks(cls, blocks: BlockCollection) -> "CandidateSet":
        """Extract the distinct candidate pairs of a block collection.

        This is the redundancy-removal step: pairs repeated across blocks are
        kept once.
        """
        seen: Set[Tuple[int, int]] = set()
        for block in blocks:
            seen.update(block.pairs())
        return cls.from_pairs(seen, blocks.index_space)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.left.size)

    def __iter__(self) -> Iterator[CandidatePair]:
        for i, j in zip(self.left.tolist(), self.right.tolist()):
            yield CandidatePair(i, j)

    def pair_at(self, position: int) -> CandidatePair:
        """Return the ``position``-th pair."""
        return CandidatePair(int(self.left[position]), int(self.right[position]))

    def position_index(self) -> Dict[Tuple[int, int], int]:
        """Map every canonical pair tuple to its array position (cached)."""
        if self._position is None:
            self._position = {
                (int(i), int(j)): k
                for k, (i, j) in enumerate(zip(self.left, self.right))
            }
        return self._position

    def contains(self, i: int, j: int) -> bool:
        """True when the (canonical form of the) pair is in the set."""
        key = (i, j) if i < j else (j, i)
        return key in self.position_index()

    def subset(self, mask: np.ndarray) -> "CandidateSet":
        """Return the pairs selected by a boolean mask or index array."""
        mask = np.asarray(mask)
        return CandidateSet(self.left[mask], self.right[mask], self.index_space)

    def packed_keys(self) -> np.ndarray:
        """``left * total + right`` per pair — a unique int64 key per pair.

        ``total`` is ``max(index_space.total, 1)``, the stride the array
        engine packs candidate pairs with.  The cardinality-based pruning
        algorithms use these keys to break probability ties deterministically:
        the retained set becomes a pure function of the ``(weight, pair)``
        multiset, independent of candidate storage order.
        """
        total = np.int64(max(self.index_space.total, 1))
        return self.left * total + self.right

    def node_degrees(self) -> np.ndarray:
        """Number of candidate pairs per node id (the LCP feature's basis)."""
        degrees = np.zeros(self.index_space.total, dtype=np.int64)
        np.add.at(degrees, self.left, 1)
        np.add.at(degrees, self.right, 1)
        return degrees

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateSet(pairs={len(self)})"
