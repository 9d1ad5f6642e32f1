"""Candidate pairs and candidate sets.

After redundancy removal, every distinct pair of entities co-occurring in at
least one block becomes a *candidate pair* (a comparison).  The
:class:`CandidateSet` stores the distinct pairs in two parallel NumPy arrays
(left node ids, right node ids), which keeps downstream feature generation
and pruning vectorised.
"""

from __future__ import annotations

import numpy as np

from .entity import EntityIndexSpace


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

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.left.size)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CandidateSet(pairs={len(self)})"
