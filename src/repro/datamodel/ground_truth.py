"""Ground truth of duplicate pairs.

The ground truth ``D`` is the set of matching entity pairs.  It is used to
label training instances, to evaluate block collections and pruned candidate
sets, and to drive the undersampling procedure of the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Set, Tuple

import numpy as np

from .candidates import CandidateSet
from .entity import EntityCollection, EntityIndexSpace


class GroundTruth:
    """The set of known duplicate pairs, stored as canonical node id tuples."""

    def __init__(self, pairs: Iterable[Tuple[int, int]], index_space: EntityIndexSpace) -> None:
        canonical: Set[Tuple[int, int]] = set()
        for i, j in pairs:
            if i == j:
                raise ValueError("an entity cannot be a duplicate of itself")
            canonical.add((i, j) if i < j else (j, i))
        self._pairs = canonical
        self.index_space = index_space
        self._packed: Optional[np.ndarray] = None
        self._packed_stride: int = 0

    # -- constructors ----------------------------------------------------------
    @classmethod
    def from_id_pairs(
        cls,
        id_pairs: Iterable[Tuple[str, str]],
        first: EntityCollection,
        second: Optional[EntityCollection] = None,
    ) -> "GroundTruth":
        """Build from entity-id pairs of one (dirty) or two (clean) collections.

        For Clean-Clean ER, the first id of each pair must belong to ``first``
        and the second id to ``second``.
        """
        if second is None:
            space = EntityIndexSpace(len(first))
            pairs = [
                (first.index_of(a), first.index_of(b)) for a, b in id_pairs
            ]
        else:
            space = EntityIndexSpace(len(first), len(second))
            pairs = [
                (space.node_of_first(first.index_of(a)), space.node_of_second(second.index_of(b)))
                for a, b in id_pairs
            ]
        return cls(pairs, space)

    # -- container protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self._pairs))

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        i, j = pair
        key = (i, j) if i < j else (j, i)
        return key in self._pairs

    def pairs(self) -> Set[Tuple[int, int]]:
        """Return a copy of the duplicate pair set."""
        return set(self._pairs)

    # -- labelling --------------------------------------------------------------
    def is_match(self, i: int, j: int) -> bool:
        """True when nodes ``i`` and ``j`` are duplicates."""
        return (i, j) in self

    def packed_pairs(self) -> np.ndarray:
        """The duplicate pairs as sorted packed ``i * stride + j`` keys (cached).

        The stride is ``max(index_space.total, largest pair id + 1, 1)`` so
        packing is collision-free even for pairs constructed outside the
        declared index space.
        """
        if self._packed is None:
            stride = max(self.index_space.total, 1)
            if self._pairs:
                # pairs are canonical (i < j), so j carries the largest id
                stride = max(stride, max(j for _, j in self._pairs) + 1)
                keys = np.fromiter(
                    (i * stride + j for i, j in self._pairs),
                    dtype=np.int64,
                    count=len(self._pairs),
                )
                keys.sort()
            else:
                keys = np.empty(0, dtype=np.int64)
            self._packed = keys
            self._packed_stride = stride
        return self._packed

    def _packed_with(self, candidates: CandidateSet) -> Tuple[np.ndarray, np.ndarray]:
        """The truth's sorted keys and the (non-empty) candidates' keys under
        one stride: the truth's, widened past the largest candidate id when one
        reaches beyond it (re-packing keeps the truth keys sorted: ``j`` stays
        below either stride)."""
        truth = self.packed_pairs()
        stride = self._packed_stride
        reach = int(candidates.right.max()) + 1
        if reach > stride:
            truth = truth // stride * np.int64(reach) + truth % stride
            stride = reach
        return truth, candidates.left * np.int64(stride) + candidates.right

    def labels_for(self, candidates: CandidateSet) -> np.ndarray:
        """Return a boolean label per candidate pair (True = matching).

        The array is aligned with the candidate set's storage order, so it can
        be used directly as classification target or evaluation reference.
        Labels are computed by a packed-key ``np.searchsorted`` lookup — no
        per-pair tuple allocations — whatever the candidates' node ids.
        Candidates stored strictly ascending by key (every batch set) are
        searched *by* the few truth keys.
        """
        if len(candidates) == 0:
            return np.zeros(0, dtype=bool)
        packed, keys = self._packed_with(candidates)
        if packed.size == 0:
            return np.zeros(len(candidates), dtype=bool)
        if np.all(keys[1:] > keys[:-1]):
            positions = np.minimum(np.searchsorted(keys, packed), keys.size - 1)
            labels = np.zeros(keys.size, dtype=bool)
            labels[positions[keys[positions] == packed]] = True
            return labels
        positions = np.minimum(np.searchsorted(packed, keys), packed.size - 1)
        return packed[positions] == keys

    def covered_by(self, candidates: CandidateSet) -> int:
        """Number of duplicate pairs present in the candidate set."""
        if len(candidates) == 0:
            return 0
        packed, keys = self._packed_with(candidates)
        keys = np.sort(keys)
        positions = np.minimum(np.searchsorted(keys, packed), keys.size - 1)
        return int(np.count_nonzero(keys[positions] == packed))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroundTruth(duplicates={len(self)})"
