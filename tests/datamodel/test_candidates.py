"""Tests for candidate pairs and candidate sets."""

import numpy as np
import pytest

from reference import pair_tuples
from repro.datamodel import CandidatePair, CandidateSet, EntityIndexSpace


class TestCandidatePair:
    def test_canonical_orders_nodes(self):
        assert CandidatePair(5, 2).canonical() == CandidatePair(2, 5)
        assert CandidatePair(2, 5).canonical() == CandidatePair(2, 5)


class TestCandidateSet:
    def test_from_pairs_deduplicates_and_canonicalises(self):
        space = EntityIndexSpace(3, 3)
        candidates = CandidateSet.from_pairs([(3, 0), (0, 3), (1, 4)], space)
        assert len(candidates) == 2
        assert pair_tuples(candidates) == [(0, 3), (1, 4)]

    def test_from_pairs_rejects_self_pair(self):
        space = EntityIndexSpace(3)
        with pytest.raises(ValueError):
            CandidateSet.from_pairs([(1, 1)], space)

    def test_from_blocks_removes_redundant_comparisons(self, small_blocks):
        candidates = CandidateSet.from_blocks(small_blocks)
        tuples = pair_tuples(candidates)
        assert len(tuples) == len(set(tuples))
        # pair (0, 3) appears in blocks alpha and beta but must be counted once
        assert tuples.count((0, 3)) == 1

    def test_contains_and_position_index(self, small_candidates):
        first_pair = small_candidates.pair_at(0)
        assert small_candidates.contains(first_pair.left, first_pair.right)
        assert small_candidates.contains(first_pair.right, first_pair.left)
        assert not small_candidates.contains(0, 2)  # same-side pair never generated

    def test_subset_by_mask(self, small_candidates):
        mask = np.zeros(len(small_candidates), dtype=bool)
        mask[0] = True
        subset = small_candidates.subset(mask)
        assert len(subset) == 1
        assert subset.pair_at(0) == small_candidates.pair_at(0)

    def test_node_degrees_sum_to_twice_pairs(self, small_candidates):
        degrees = small_candidates.node_degrees()
        assert degrees.sum() == 2 * len(small_candidates)

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
        candidates = CandidateSet.from_pairs([], space)
        assert len(candidates) == 0
        assert list(candidates) == []
        assert candidates.node_degrees().sum() == 0

    def test_iteration_yields_pairs(self, small_candidates):
        pairs = list(small_candidates)
        assert all(isinstance(pair, CandidatePair) for pair in pairs)
        assert len(pairs) == len(small_candidates)
