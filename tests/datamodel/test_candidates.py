"""Tests for candidate sets: the distinct pairs as two parallel arrays."""

import numpy as np
import pytest

from reference import pair_tuples, reference_candidates
from repro.datamodel import CandidateSet, EntityIndexSpace


class TestCandidateSet:
    def test_self_pair_rejected(self):
        space = EntityIndexSpace(3)
        with pytest.raises(ValueError):
            CandidateSet(np.array([1]), np.array([1]), space)

    def test_blocks_comparisons_counted_once(self, small_blocks):
        candidates = reference_candidates(small_blocks)
        tuples = pair_tuples(candidates)
        assert len(tuples) == len(set(tuples))
        # pair (0, 3) appears in blocks alpha and beta but must be counted once
        assert tuples.count((0, 3)) == 1

    def test_subset_by_mask(self, small_candidates):
        mask = np.zeros(len(small_candidates), dtype=bool)
        mask[0] = True
        subset = small_candidates.subset(mask)
        assert len(subset) == 1
        assert pair_tuples(subset) == pair_tuples(small_candidates)[:1]

    def test_non_canonical_arrays_rejected(self):
        space = EntityIndexSpace(4)
        with pytest.raises(ValueError):
            CandidateSet(np.array([2]), np.array([1]), space)

    def test_mismatched_arrays_rejected(self):
        space = EntityIndexSpace(4)
        with pytest.raises(ValueError):
            CandidateSet(np.array([0, 1]), np.array([2]), space)

    def test_empty_set(self):
        space = EntityIndexSpace(4)
        candidates = CandidateSet(np.empty(0), np.empty(0), space)
        assert len(candidates) == 0
        assert pair_tuples(candidates) == []
