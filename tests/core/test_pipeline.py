"""Tests for the end-to-end Generalized Supervised Meta-blocking pipeline."""

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.core import GeneralizedSupervisedMetaBlocking
from repro.evaluation import evaluate_candidates, evaluate_result
from repro.ml import GaussianNB, LinearSVC, LogisticRegression
from repro.weights import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET


class TestPipelineBasics:
    def test_result_structure(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
        )
        n = len(prepared_dblpacm.prepared.candidates)
        assert result.retained_mask.shape == (n,)
        assert result.probabilities.shape == (n,)
        assert result.labels.shape == (n,)
        assert np.all((result.probabilities >= 0) & (result.probabilities <= 1))
        assert result.retained_count == result.retained_mask.sum() == len(result.retained)
        assert result.runtime_seconds > 0
        assert result.feature_matrix is None  # not kept by default

    def test_keep_features_flag(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            keep_features=True,
        )
        assert result.feature_matrix is not None
        assert result.feature_matrix.n_pairs == len(prepared_dblpacm.prepared.candidates)

    def test_same_seed_reproducible(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        first = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            seed=7,
        )
        second = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            seed=7,
        )
        assert np.array_equal(first.retained_mask, second.retained_mask)
        assert np.allclose(first.probabilities, second.probabilities)

    def test_different_seeds_change_training_sample(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        first = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            seed=1,
        )
        second = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            seed=2,
        )
        assert not np.array_equal(
            first.training_set.candidate_indices, second.training_set.candidate_indices
        )

    def test_precomputed_feature_matrix_must_align(self, prepared_dblpacm, small_candidates, small_stats):
        from repro.core import FeatureVectorGenerator

        wrong_matrix = FeatureVectorGenerator(BLAST_FEATURE_SET).generate(
            small_candidates, small_stats
        )
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50)
        with pytest.raises(ValueError):
            pipeline.run(
                prepared_dblpacm.prepared.blocks,
                prepared_dblpacm.prepared.candidates,
                prepared_dblpacm.ground_truth,
                feature_matrix=wrong_matrix,
            )

    def test_string_and_instance_pruning_accepted(self):
        from repro.core import SupervisedBLAST

        by_name = GeneralizedSupervisedMetaBlocking(pruning="BLAST")
        by_instance = GeneralizedSupervisedMetaBlocking(pruning=SupervisedBLAST(ratio=0.4))
        assert by_name.pruning.name == "BLAST"
        assert by_instance.pruning.ratio == 0.4

    def test_pipeline_does_not_consume_the_global_numpy_stream(self, dblpacm_dataset):
        """Every stochastic stage draws from the seeded RNG entrypoint
        (:mod:`repro.utils.rng`), never from NumPy's global state."""
        np.random.seed(1234)
        state_before = np.random.get_state()[1].copy()
        pipeline = GeneralizedSupervisedMetaBlocking(
            pruning="BLAST", training_size=50, seed=3
        )
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        pipeline.run(
            prepared.blocks,
            prepared.candidates,
            dblpacm_dataset.ground_truth,
            stats=prepared.statistics(),
        )
        assert np.array_equal(state_before, np.random.get_state()[1])

    def test_timer_stages_present(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
        )
        for stage in ("features", "training", "scoring", "pruning"):
            assert stage in result.timer.stages


class TestPipelineEffectiveness:
    def test_precision_improves_over_input_blocks(self, prepared_dblpacm):
        """The core promise of Meta-blocking: Pr(B') >> Pr(B) with Re(B') ~ Re(B)."""
        input_report = evaluate_candidates(
            prepared_dblpacm.prepared.candidates, prepared_dblpacm.ground_truth
        )
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
        )
        output_report = evaluate_result(result, prepared_dblpacm.ground_truth)
        assert output_report.precision > 10 * input_report.precision
        assert output_report.recall > 0.9 * input_report.recall

    @pytest.mark.parametrize("factory", [LogisticRegression, lambda: LinearSVC(random_state=0), GaussianNB])
    def test_classifier_robustness(self, prepared_dblpacm, factory):
        """The paper's claim: the approach is robust to the classifier choice."""
        pipeline = GeneralizedSupervisedMetaBlocking(
            training_size=50, seed=0, classifier_factory=factory
        )
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
        )
        report = evaluate_result(result, prepared_dblpacm.ground_truth)
        assert report.recall > 0.8
        assert report.f1 > 0.3

    def test_original_feature_set_also_works(self, prepared_abtbuy):
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=ORIGINAL_FEATURE_SET, pruning="WNP", training_size=50, seed=0
        )
        result = pipeline.run(
            prepared_abtbuy.prepared.blocks,
            prepared_abtbuy.prepared.candidates,
            prepared_abtbuy.ground_truth,
        )
        report = evaluate_result(result, prepared_abtbuy.ground_truth)
        assert report.recall > 0.6
        assert report.precision > 0.05

    def test_dirty_er_pipeline(self, prepared_dirty):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared_dirty.prepared.blocks, prepared_dirty.prepared.candidates, prepared_dirty.ground_truth
        )
        report = evaluate_result(result, prepared_dirty.ground_truth)
        assert report.recall > 0.7
        assert report.precision > 0.1
