"""Tests for the ground truth of duplicate pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import (
    CandidateSet,
    EntityCollection,
    EntityIndexSpace,
    GroundTruth,
    make_profile,
)

pytestmark = pytest.mark.equivalence


@pytest.fixture
def two_collections():
    first = EntityCollection([make_profile("a1"), make_profile("a2")], name="first")
    second = EntityCollection([make_profile("b1"), make_profile("b2")], name="second")
    return first, second


class TestGroundTruth:
    def test_from_id_pairs_clean_clean(self, two_collections):
        first, second = two_collections
        truth = GroundTruth.from_id_pairs([("a1", "b2")], first, second)
        assert len(truth) == 1
        # a1 is node 0, b2 is node 3
        assert truth.is_match(0, 3)
        assert truth.is_match(3, 0)
        assert not truth.is_match(0, 2)

    def test_from_id_pairs_dirty(self):
        collection = EntityCollection(
            [make_profile("x"), make_profile("y"), make_profile("z")], name="dirty"
        )
        truth = GroundTruth.from_id_pairs([("x", "z")], collection)
        assert truth.is_match(0, 2)
        assert not truth.is_match(0, 1)

    def test_self_pair_rejected(self):
        space = EntityIndexSpace(3)
        with pytest.raises(ValueError):
            GroundTruth([(1, 1)], space)

    def test_labels_for_candidates(self, two_collections):
        first, second = two_collections
        truth = GroundTruth.from_id_pairs([("a1", "b1")], first, second)
        space = truth.index_space
        candidates = CandidateSet.from_pairs([(0, 2), (1, 3)], space)
        labels = truth.labels_for(candidates)
        assert labels.tolist() == [True, False]

    def test_covered_by(self, two_collections):
        first, second = two_collections
        truth = GroundTruth.from_id_pairs([("a1", "b1"), ("a2", "b2")], first, second)
        candidates = CandidateSet.from_pairs([(0, 2)], truth.index_space)
        assert truth.covered_by(candidates) == 1

    def test_iteration_and_pairs_copy(self, two_collections):
        first, second = two_collections
        truth = GroundTruth.from_id_pairs([("a2", "b1"), ("a1", "b1")], first, second)
        assert list(truth) == [(0, 2), (1, 2)]
        pairs = truth.pairs()
        pairs.add((9, 10))
        assert len(truth) == 2  # mutation of the copy does not leak


class TestVectorizedLabels:
    """The packed-key ``labels_for`` must match the tuple-set reference."""

    def test_matches_reference_on_random_candidates(self):
        rng = np.random.default_rng(42)
        space = EntityIndexSpace(30, 25)
        duplicates = set()
        while len(duplicates) < 40:
            i = int(rng.integers(0, 30))
            j = int(rng.integers(30, 55))
            duplicates.add((i, j))
        truth = GroundTruth(duplicates, space)
        pairs = set()
        while len(pairs) < 200:
            i = int(rng.integers(0, 54))
            j = int(rng.integers(i + 1, 55))
            pairs.add((i, j))
        candidates = CandidateSet.from_pairs(pairs, space)
        vectorized = truth.labels_for(candidates)
        reference = truth.labels_for_pairs(candidates)
        assert vectorized.dtype == bool
        assert np.array_equal(vectorized, reference)
        assert vectorized.sum() > 0  # the draw covers some duplicates

    def test_empty_candidates_and_empty_truth(self):
        space = EntityIndexSpace(4, 4)
        truth = GroundTruth([], space)
        empty = CandidateSet.from_pairs([], space)
        assert truth.labels_for(empty).shape == (0,)
        candidates = CandidateSet.from_pairs([(0, 5), (1, 6)], space)
        assert truth.labels_for(candidates).tolist() == [False, False]

    def test_falls_back_when_candidate_ids_exceed_the_space(self):
        truth = GroundTruth([(0, 2)], EntityIndexSpace(3))
        larger = CandidateSet.from_pairs([(0, 2), (0, 7)], EntityIndexSpace(8))
        labels = truth.labels_for(larger)
        assert np.array_equal(labels, truth.labels_for_pairs(larger))
        assert labels.tolist() == [True, False]

    def test_out_of_space_truth_pairs_do_not_alias(self):
        # (0, 12) packed with the space's stride 10 would alias (1, 2)
        truth = GroundTruth([(0, 12)], EntityIndexSpace(5, 5))
        candidates = CandidateSet.from_pairs([(1, 2)], EntityIndexSpace(5, 5))
        labels = truth.labels_for(candidates)
        assert np.array_equal(labels, truth.labels_for_pairs(candidates))
        assert labels.tolist() == [False]

    def test_packed_pairs_sorted_and_cached(self, two_collections):
        first, second = two_collections
        truth = GroundTruth.from_id_pairs([("a2", "b2"), ("a1", "b1")], first, second)
        packed = truth.packed_pairs()
        assert np.all(np.diff(packed) > 0)
        assert truth.packed_pairs() is packed


@st.composite
def truths_and_candidates(draw):
    """A ground truth and a candidate set in one of the orders ``labels_for``
    distinguishes: ascending by packed key (the batch case: the truth keys
    search the candidates) or shuffled (a streaming registry: the candidates
    search the truth)."""
    total = draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, total - 1), st.integers(0, total - 1)).filter(
        lambda nodes: nodes[0] != nodes[1]
    )
    # truth pairs may name nodes past the candidates' largest (the
    # ``searchsorted == size`` clamp) or past the space (a wider stride)
    beyond = st.tuples(st.integers(0, total - 1), st.integers(total, total + 6))
    truth = GroundTruth(
        draw(st.lists(st.one_of(pair, beyond), max_size=25)), EntityIndexSpace(total)
    )
    # candidates: some of the truth (never all of it when it reaches past the
    # space), some other pairs; possibly fewer than the truth pairs, or none
    inside = sorted(p for p in truth.pairs() if p[1] < total)
    kept = draw(st.lists(st.sampled_from(inside), max_size=len(inside))) if inside else []
    pairs = sorted({tuple(sorted(p)) for p in kept + draw(st.lists(pair, max_size=20))})
    order = draw(st.permutations(range(len(pairs)))) if draw(st.booleans()) else range(len(pairs))
    left = np.array([pairs[k][0] for k in order], dtype=np.int64)
    right = np.array([pairs[k][1] for k in order], dtype=np.int64)
    return truth, CandidateSet(left, right, EntityIndexSpace(total))


class TestLabelsAgainstTheOracle:
    @given(case=truths_and_candidates())
    @settings(max_examples=300, deadline=None)
    def test_either_search_direction_equals_the_tuple_set_oracle(self, case):
        truth, candidates = case
        labels = truth.labels_for(candidates)
        assert labels.dtype == bool and labels.shape == (len(candidates),)
        assert np.array_equal(labels, truth.labels_for_pairs(candidates))

    @pytest.mark.parametrize("shuffled", [False, True], ids=["ascending", "registry-order"])
    def test_truth_keys_beyond_every_candidate_key_are_clamped(self, shuffled):
        space = EntityIndexSpace(10)
        truth = GroundTruth([(0, 1), (2, 5), (8, 9), (7, 9)], space)
        left, right = np.array([0, 0, 2, 2, 3]), np.array([1, 4, 5, 6, 4])
        if shuffled:
            left, right = left[::-1], right[::-1]
        labels = truth.labels_for(CandidateSet(left, right, space))
        expected = [True, False, True, False, False]
        assert labels.tolist() == (expected[::-1] if shuffled else expected)

    def test_fewer_candidates_than_truth_pairs(self):
        space = EntityIndexSpace(6)
        truth = GroundTruth([(0, 1), (0, 2), (1, 2), (3, 4), (4, 5)], space)
        assert truth.labels_for(CandidateSet.from_pairs([(1, 2)], space)).tolist() == [True]
        assert truth.labels_for(CandidateSet.from_pairs([(1, 3)], space)).tolist() == [False]

    def test_candidate_ids_past_the_stride_fall_back_in_either_order(self):
        truth = GroundTruth([(0, 2)], EntityIndexSpace(3))
        wide = EntityIndexSpace(8)
        for left, right in (([0, 0, 1], [2, 7, 2]), ([1, 0, 0], [2, 7, 2])):
            candidates = CandidateSet(np.array(left), np.array(right), wide)
            labels = truth.labels_for(candidates)
            assert np.array_equal(labels, truth.labels_for_pairs(candidates))
            assert labels.sum() == 1

