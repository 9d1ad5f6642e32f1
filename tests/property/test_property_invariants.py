"""Property-based tests (hypothesis) on the library's core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    Block,
    BlockCollection,
    BoundedTopQueue,
    block_statistics,
    pair_tuples,
    reference_candidates,
)
from repro.core import (
    BinaryClassifierPruning,
    SupervisedBLAST,
    SupervisedCEP,
    SupervisedCNP,
    SupervisedRCNP,
    SupervisedRWNP,
    SupervisedWEP,
    SupervisedWNP,
)
from repro.datamodel import EntityIndexSpace
from repro.ml import LogisticRegression, PlattScaler, StandardScaler, balanced_sample
from repro.utils import tokens
from repro.weights import JaccardScheme, RACCBScheme, WeightedJaccardScheme


# -- strategies -----------------------------------------------------------------------

@st.composite
def bilateral_blocks(draw):
    """Random small bilateral block collections."""
    size_first = draw(st.integers(min_value=2, max_value=6))
    size_second = draw(st.integers(min_value=2, max_value=6))
    space = EntityIndexSpace(size_first, size_second)
    n_blocks = draw(st.integers(min_value=1, max_value=6))
    blocks = []
    for index in range(n_blocks):
        first = draw(
            st.lists(st.integers(0, size_first - 1), min_size=1, max_size=size_first, unique=True)
        )
        second = draw(
            st.lists(
                st.integers(size_first, size_first + size_second - 1),
                min_size=1,
                max_size=size_second,
                unique=True,
            )
        )
        blocks.append(Block(f"b{index}", sorted(first), sorted(second)))
    return BlockCollection(blocks, space)


@st.composite
def candidates_with_probabilities(draw):
    """A random candidate set plus aligned probabilities."""
    blocks = draw(bilateral_blocks())
    candidate_set = reference_candidates(blocks)
    assume(len(candidate_set) > 0)
    probabilities = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=len(candidate_set),
            max_size=len(candidate_set),
        )
    )
    return blocks, candidate_set, np.array(probabilities)


# -- text utilities ---------------------------------------------------------------------

class TestTextProperties:
    @given(st.text(max_size=60))
    def test_tokens_are_lowercase_alphanumeric(self, text):
        for token in tokens(text):
            assert token == token.lower()
            assert token.isalnum()


# -- priority queue -----------------------------------------------------------------------

class TestQueueProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=10),
    )
    def test_queue_keeps_the_top_weights(self, weights, capacity):
        queue = BoundedTopQueue(capacity)
        for index, weight in enumerate(weights):
            queue.push(weight, index)
        kept = queue.weighted_items()
        assert len(kept) == min(capacity, len(weights))
        threshold = sorted(weights, reverse=True)[len(kept) - 1]
        assert all(weight >= threshold - 1e-12 for weight, _ in kept)


# -- weighting schemes ---------------------------------------------------------------------

class TestSchemeProperties:
    @settings(max_examples=30, deadline=None)
    @given(bilateral_blocks())
    def test_jaccard_scheme_bounded_and_symmetric_in_structure(self, blocks):
        candidate_set = reference_candidates(blocks)
        assume(len(candidate_set) > 0)
        stats = block_statistics(blocks, candidate_set)
        values = JaccardScheme().compute(candidate_set, stats)[:, 0]
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)
        # every candidate pair shares at least one block, so JS > 0
        assert np.all(values > 0.0)

    @settings(max_examples=30, deadline=None)
    @given(bilateral_blocks())
    def test_wjs_normalises_raccb(self, blocks):
        candidate_set = reference_candidates(blocks)
        assume(len(candidate_set) > 0)
        stats = block_statistics(blocks, candidate_set)
        raccb = RACCBScheme().compute(candidate_set, stats)[:, 0]
        wjs = WeightedJaccardScheme().compute(candidate_set, stats)[:, 0]
        assert np.all(wjs <= 1.0 + 1e-12)
        assert np.all((raccb > 0) == (wjs > 0))


# -- pruning algorithms -----------------------------------------------------------------------

class TestPruningProperties:
    @settings(max_examples=30, deadline=None)
    @given(candidates_with_probabilities())
    def test_no_algorithm_retains_invalid_pairs(self, data):
        blocks, candidate_set, probabilities = data
        algorithms = [
            BinaryClassifierPruning(),
            SupervisedWEP(),
            SupervisedWNP(),
            SupervisedRWNP(),
            SupervisedBLAST(),
            SupervisedCEP(budget=3),
            SupervisedCNP(budget=2),
            SupervisedRCNP(budget=2),
        ]
        invalid = probabilities < 0.5
        for algorithm in algorithms:
            mask = algorithm.prune(probabilities, candidate_set)
            assert mask.shape == (len(candidate_set),)
            assert not np.any(mask & invalid), algorithm.name

    @settings(max_examples=30, deadline=None)
    @given(candidates_with_probabilities())
    def test_reciprocal_variants_are_subsets(self, data):
        blocks, candidate_set, probabilities = data
        wnp = SupervisedWNP().prune(probabilities, candidate_set)
        rwnp = SupervisedRWNP().prune(probabilities, candidate_set)
        cnp = SupervisedCNP(budget=2).prune(probabilities, candidate_set)
        rcnp = SupervisedRCNP(budget=2).prune(probabilities, candidate_set)
        assert np.all(~rwnp | wnp)
        assert np.all(~rcnp | cnp)

    @settings(max_examples=30, deadline=None)
    @given(candidates_with_probabilities())
    def test_every_retained_mask_is_subset_of_bcl(self, data):
        """BCl retains all valid pairs, so every other algorithm retains a subset."""
        blocks, candidate_set, probabilities = data
        bcl = BinaryClassifierPruning().prune(probabilities, candidate_set)
        for algorithm in (SupervisedWEP(), SupervisedRWNP(), SupervisedBLAST()):
            mask = algorithm.prune(probabilities, candidate_set)
            assert np.all(~mask | bcl), algorithm.name

    @settings(max_examples=30, deadline=None)
    @given(candidates_with_probabilities(), st.integers(min_value=1, max_value=5))
    def test_cep_never_exceeds_budget(self, data, budget):
        blocks, candidate_set, probabilities = data
        mask = SupervisedCEP(budget=budget).prune(probabilities, candidate_set)
        assert mask.sum() <= budget


# -- candidate sets --------------------------------------------------------------------------

class TestCandidateSetProperties:
    @settings(max_examples=30, deadline=None)
    @given(bilateral_blocks())
    def test_candidate_pairs_are_unique_and_canonical(self, blocks):
        candidate_set = reference_candidates(blocks)
        tuples = pair_tuples(candidate_set)
        assert len(tuples) == len(set(tuples))
        assert all(left < right for left, right in tuples)

    @settings(max_examples=30, deadline=None)
    @given(bilateral_blocks())
    def test_candidate_count_never_exceeds_block_cardinality(self, blocks):
        candidate_set = reference_candidates(blocks)
        assert len(candidate_set) <= sum(block.cardinality() for block in blocks)


# -- machine learning --------------------------------------------------------------------------

class TestMlProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=10, max_value=60),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_logistic_probabilities_bounded(self, n, d, seed):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, d))
        labels = (features[:, 0] + rng.normal(scale=0.2, size=n) > 0).astype(float)
        assume(0 < labels.sum() < n)
        model = LogisticRegression().fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_scaler_round_trip_shape(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(30, 3)) * rng.uniform(0.5, 5) + rng.uniform(-3, 3)
        transformed = StandardScaler().fit_transform(data)
        assert transformed.shape == data.shape
        assert np.all(np.isfinite(transformed))

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=200),
        st.integers(min_value=2, max_value=100),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_balanced_sample_never_exceeds_population(self, n_negative, n_positive, seed):
        labels = np.concatenate([np.ones(n_positive, bool), np.zeros(n_negative, bool)])
        sample = balanced_sample(labels, size=20, seed=seed)
        assert sample.positives <= min(10, n_positive)
        assert sample.negatives <= min(10, n_negative)
        assert len(set(sample.indices.tolist())) == len(sample)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16))
    def test_platt_output_bounded(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=50)
        labels = (scores + rng.normal(scale=1.0, size=50) > 0).astype(float)
        assume(0 < labels.sum() < 50)
        probabilities = PlattScaler().fit_transform(scores, labels)
        assert np.all((probabilities >= 0) & (probabilities <= 1))
