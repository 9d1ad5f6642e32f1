"""MatchingSession behaviour + exact batch equivalence on fixture datasets.

The acceptance invariant: inserting every entity of a benchmark one at a
time through a :class:`MatchingSession` holding the batch run's frozen
classifier, then asking for the exact answer, reproduces the batch
pipeline's retained pairs on the final collection — verified here on two
generated fixture datasets (DblpAcm and AbtBuy) and two pruning algorithms.
"""

import numpy as np
import pytest

from repro.blocking import NO_CLEANING, prepare_blocks
from repro.core import FeatureVectorGenerator, GeneralizedSupervisedMetaBlocking
from repro.core.pruning import BlockTotals, get_pruning_algorithm
from repro.datamodel import EntityCollection, make_profile
from repro.datasets import load_benchmark
from repro.incremental import (
    FrozenModel,
    MatchingSession,
    OnlineWEP,
    StreamTrainingError,
    UnknownEntityError,
    interleave_profiles,
    replay_stream,
    split_bootstrap,
    train_frozen_model,
)
from repro.pairs import pack_pair_keys
from repro.weights import BLAST_FEATURE_SET

from reference import block_statistics


def _batch_retained_ids(dataset, result):
    size_first = len(dataset.first)
    return {
        (
            dataset.first[int(i)].entity_id,
            dataset.second[int(j) - size_first].entity_id,
        )
        for i, j in zip(result.retained.left, result.retained.right)
    }


@pytest.fixture(scope="module", params=["DblpAcm", "AbtBuy"])
def streamed_fixture(request):
    """One benchmark, its batch pipeline run, and the frozen model."""
    dataset = load_benchmark(request.param, seed=11, scale=0.15)
    prepared = prepare_blocks(dataset.first, dataset.second, cleaning=NO_CLEANING)
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=BLAST_FEATURE_SET, pruning="BLAST", training_size=50, seed=3
    )
    result = pipeline.run(
        prepared.blocks, prepared.candidates, dataset.ground_truth, prepared.statistics()
    )
    return dataset, prepared, result


class TestBatchEquivalence:
    def test_streaming_reproduces_batch_retained_pairs(self, streamed_fixture):
        dataset, _, result = streamed_fixture
        session = MatchingSession(FrozenModel.from_batch(result), bilateral=True)
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        final = session.retained()
        assert final.retained_id_set() == _batch_retained_ids(dataset, result)
        assert len(final.candidates) == len(result.candidates)

    def test_equivalence_holds_for_wep_pruning(self, streamed_fixture):
        dataset, prepared, result = streamed_fixture
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET, pruning="WEP", training_size=50, seed=3
        )
        wep_result = pipeline.run(
            prepared.blocks, prepared.candidates, dataset.ground_truth, prepared.statistics()
        )
        session = MatchingSession(
            FrozenModel.from_batch(wep_result), bilateral=True, pruning="WEP"
        )
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        assert session.retained().retained_id_set() == _batch_retained_ids(
            dataset, wep_result
        )


def _batch_retained_on_live(model, first, second, pruning):
    """Apply the frozen model + batch pruning to a live collection pair."""
    prepared = prepare_blocks(first, second, cleaning=NO_CLEANING)
    stats = block_statistics(prepared.blocks, prepared.candidates)
    matrix = FeatureVectorGenerator(model.feature_set).generate(
        prepared.candidates, stats
    )
    probabilities = model.score(matrix.values)
    if len(prepared.candidates) == 0:
        return set()
    mask = get_pruning_algorithm(pruning).prune(
        probabilities, prepared.candidates, BlockTotals.of(prepared.blocks)
    )
    size_first = len(first)
    return {
        (first[int(i)].entity_id, second[int(j) - size_first].entity_id)
        for i, j in zip(
            prepared.candidates.left[mask], prepared.candidates.right[mask]
        )
    }


class TestDynamicEquivalence:
    """Removal/update/bulk paths stay exactly batch-equivalent on fixtures."""

    @pytest.mark.parametrize("pruning", ["BLAST", "CEP", "RCNP"])
    def test_delete_heavy_replay_matches_batch_on_survivors(
        self, streamed_fixture, pruning
    ):
        dataset, _, result = streamed_fixture
        model = FrozenModel.from_batch(result)
        replay = replay_stream(
            dataset, model, pruning=pruning, delete_fraction=0.3, churn_seed=5
        )
        assert replay.num_deletes > 0
        index = replay.session.index
        live_first = EntityCollection(
            [p for p in dataset.first if index.has_entity(p.entity_id, 0)],
            name="live-1",
        )
        live_second = EntityCollection(
            [p for p in dataset.second if index.has_entity(p.entity_id, 1)],
            name="live-2",
        )
        batch = _batch_retained_on_live(model, live_first, live_second, pruning)
        assert replay.session.retained().retained_id_set() == batch

    def test_cardinality_pruning_matches_batch_without_churn(self, streamed_fixture):
        """The headline bugfix: CEP is exactly batch-equivalent while streaming."""
        dataset, prepared, _ = streamed_fixture
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET, pruning="CEP", training_size=50, seed=3
        )
        cep_result = pipeline.run(
            prepared.blocks, prepared.candidates, dataset.ground_truth, prepared.statistics()
        )
        session = MatchingSession(
            FrozenModel.from_batch(cep_result), bilateral=True, pruning="CEP"
        )
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        assert session.retained().retained_id_set() == _batch_retained_ids(
            dataset, cep_result
        )

    def test_bulk_insert_matches_per_entity_inserts(self, streamed_fixture):
        dataset, _, result = streamed_fixture
        model = FrozenModel.from_batch(result)
        one_at_a_time = MatchingSession(model, bilateral=True)
        for side, collection in enumerate((dataset.first, dataset.second)):
            for profile in collection:
                one_at_a_time.insert(profile, side=side)
        bulk = MatchingSession(model, bilateral=True)
        outcome_first = bulk.insert_bulk(list(dataset.first), side=0)
        outcome_second = bulk.insert_bulk(list(dataset.second), side=1)
        assert (
            outcome_first.num_new_pairs + outcome_second.num_new_pairs
            == one_at_a_time.num_pairs
        )
        assert bulk.retained().retained_id_set() == one_at_a_time.retained().retained_id_set()

    def test_update_rescores_against_current_statistics(self, streamed_fixture):
        dataset, _, result = streamed_fixture
        model = FrozenModel.from_batch(result)
        session = MatchingSession(model, bilateral=True)
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        victim = dataset.first[0]
        outcome = session.update(victim, side=0)
        assert outcome.removed.entity_id == victim.entity_id
        assert outcome.inserted.entity_id == victim.entity_id
        # same profile re-inserted -> same live pair set as plain streaming
        assert session.retained().retained_id_set() == _batch_retained_ids(
            dataset, result
        )

    def test_remove_unknown_entity_raises_named_error(self, streamed_fixture):
        _, _, result = streamed_fixture
        session = MatchingSession(FrozenModel.from_batch(result), bilateral=True)
        session.insert(make_profile("a1", text="alpha beta"), side=0)
        with pytest.raises(UnknownEntityError, match="ghost"):
            session.remove("ghost", side=0)
        with pytest.raises(UnknownEntityError, match="a1"):
            session.remove("a1", side=1)  # wrong side is unknown too
        assert session.num_entities == 1

    def test_online_wep_retraction_restores_threshold(self):
        policy = OnlineWEP()
        policy.admit(np.array([0.9, 0.2, 0.7]))
        policy.retract(np.array([0.9]))
        assert policy.threshold == pytest.approx(0.7)
        policy.retract(np.array([0.7, 0.2]))
        # empty aggregate resets exactly to the validity threshold
        assert policy.threshold == 0.5


class TestSessionBehaviour:
    def test_insert_reports_scored_matches(self, streamed_fixture):
        dataset, _, result = streamed_fixture
        session = MatchingSession(FrozenModel.from_batch(result), bilateral=True)
        outcomes = []
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            outcomes.append(session.insert(profile, side=side))
        assert session.num_entities == len(dataset.first) + len(dataset.second)
        assert sum(o.num_new_pairs for o in outcomes) == session.num_pairs
        with_pairs = [o for o in outcomes if o.num_new_pairs]
        assert with_pairs, "the stream should produce candidate pairs"
        for outcome in with_pairs:
            assert outcome.probabilities.shape == (outcome.num_new_pairs,)
            assert np.all((outcome.probabilities >= 0) & (outcome.probabilities <= 1))
            assert len(outcome.counterpart_ids) == outcome.num_new_pairs
            # matches are sorted by decreasing probability and above 0.5
            probabilities = [p for _, p in outcome.matches]
            assert probabilities == sorted(probabilities, reverse=True)
            assert all(p >= 0.5 for p in probabilities)

    def test_insert_time_probabilities_align_with_pairs(self, streamed_fixture):
        dataset, _, result = streamed_fixture
        session = MatchingSession(FrozenModel.from_batch(result), bilateral=True)
        for profile, side in interleave_profiles(dataset.first, dataset.second):
            session.insert(profile, side=side)
        keys, provisional = session.insert_time_probabilities()
        assert provisional.shape == keys.shape == (session.num_pairs,)
        assert np.all(np.diff(keys) > 0)
        # the live pairs' keys, each pair (left < right) once
        candidates = session.index.candidate_set()
        assert np.array_equal(
            keys, np.sort(pack_pair_keys(candidates.left, candidates.right))
        )

    def test_frozen_model_requires_classifier(self, streamed_fixture):
        _, _, result = streamed_fixture
        stripped = type(result)(
            retained_mask=result.retained_mask,
            retained=result.retained,
            probabilities=result.probabilities,
            labels=result.labels,
            training_set=result.training_set,
            timer=result.timer,
        )
        with pytest.raises(ValueError, match="no classifier"):
            FrozenModel.from_batch(stripped)


class TestOnlineWEP:
    def test_running_threshold_tracks_valid_scores(self):
        policy = OnlineWEP()
        assert policy.threshold == 0.5
        admitted = policy.admit(np.array([0.9, 0.2, 0.7]))
        assert policy.threshold == pytest.approx(0.8)
        assert admitted.tolist() == [True, False, False]
        admitted = policy.admit(np.array([0.85, 0.4]))
        # running average over {0.9, 0.7, 0.85}
        assert policy.threshold == pytest.approx((0.9 + 0.7 + 0.85) / 3)
        assert admitted.tolist() == [True, False]


class TestBootstrapTraining:
    def test_train_frozen_model_on_bootstrap(self):
        dataset = load_benchmark("DblpAcm", seed=7, scale=0.15)
        model = train_frozen_model(dataset, bootstrap_fraction=0.6, seed=1)
        assert model.feature_set == tuple(BLAST_FEATURE_SET)
        scores = model.score(np.zeros((3, len(model.feature_set))))
        assert scores.shape == (3,)

    def test_bootstrap_without_duplicates_raises_clear_error(self):
        dataset = load_benchmark("DblpAcm", seed=7, scale=0.15)
        # ground truth restricted to a prefix with no duplicate: build a
        # dataset whose duplicates all live outside the bootstrap
        truncated = type(dataset)(
            name=dataset.name,
            first=dataset.first,
            second=dataset.second,
            ground_truth=type(dataset.ground_truth)(
                [(0, len(dataset.first) + len(dataset.second) - 1)],
                dataset.ground_truth.index_space,
            ),
            profile=dataset.profile,
        )
        with pytest.raises(StreamTrainingError, match="no ground-truth duplicate"):
            split_bootstrap(truncated, 0.02)

    def test_bootstrap_fraction_validated(self):
        dataset = load_benchmark("DblpAcm", seed=7, scale=0.15)
        with pytest.raises(ValueError, match="fraction"):
            split_bootstrap(dataset, 0.0)
