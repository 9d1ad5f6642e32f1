"""Tests for feature-vector generation and training-set construction."""

import numpy as np
import pytest

from repro.core import FeatureVectorGenerator, build_training_set
from repro.weights import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET

from reference import reference_feature_matrix


class TestFeatureVectorGenerator:
    def test_column_labels_expand_lcp(self):
        generator = FeatureVectorGenerator(ORIGINAL_FEATURE_SET)
        assert generator.columns == ("CF-IBF", "RACCB", "JS", "LCP(e_i)", "LCP(e_j)")

    def test_matrix_shape(self, small_candidates, small_stats):
        generator = FeatureVectorGenerator(BLAST_FEATURE_SET)
        matrix = generator.generate(small_candidates, small_stats)
        assert matrix.values.shape == (len(small_candidates), 4)
        assert matrix.n_pairs == len(small_candidates)
        assert matrix.n_features == 4
        assert matrix.feature_set == BLAST_FEATURE_SET

    def test_rcnp_feature_set_width(self, small_candidates, small_stats):
        matrix = FeatureVectorGenerator(RCNP_FEATURE_SET).generate(small_candidates, small_stats)
        assert matrix.n_features == 6  # LCP contributes two columns

    def test_matrix_matches_reference(self, small_blocks, small_candidates, small_stats):
        loop = reference_feature_matrix(("JS", "LCP"), small_candidates, small_blocks)
        sparse = FeatureVectorGenerator(("JS", "LCP")).generate(small_candidates, small_stats)
        assert (loop.columns, loop.feature_set) == (sparse.columns, sparse.feature_set)
        np.testing.assert_allclose(sparse.values, loop.values)

    def test_empty_feature_set_rejected(self):
        with pytest.raises(ValueError):
            FeatureVectorGenerator(())

    def test_values_are_finite(self, prepared_dblpacm):
        matrix = FeatureVectorGenerator(
            ("CF-IBF", "RACCB", "JS", "LCP", "EJS", "WJS", "RS", "NRS")
        ).generate(prepared_dblpacm.prepared.candidates, prepared_dblpacm.prepared.statistics())
        assert np.all(np.isfinite(matrix.values))


class TestTrainingSet:
    def test_balanced_policy(self, prepared_dblpacm):
        matrix = FeatureVectorGenerator(BLAST_FEATURE_SET).generate(
            prepared_dblpacm.prepared.candidates, prepared_dblpacm.prepared.statistics()
        )
        training = build_training_set(
            matrix,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            size=50,
            seed=0,
        )
        assert len(training) == 50
        assert training.positives == 25
        assert training.negatives == 25
        assert training.features.shape == (50, 4)
        assert training.policy == "balanced"

    def test_proportional_policy(self, prepared_dblpacm):
        matrix = FeatureVectorGenerator(BLAST_FEATURE_SET).generate(
            prepared_dblpacm.prepared.candidates, prepared_dblpacm.prepared.statistics()
        )
        training = build_training_set(
            matrix,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            policy="proportional",
            seed=0,
        )
        # the [21] baseline's rule: 5 % of the positive pairs (at least 5), as many negatives
        labels = prepared_dblpacm.ground_truth.labels_for(prepared_dblpacm.prepared.candidates)
        assert training.positives == max(5, round(0.05 * int(labels.sum())))
        assert training.positives == training.negatives

    def test_labels_match_ground_truth(self, prepared_dblpacm):
        matrix = FeatureVectorGenerator(("JS",)).generate(
            prepared_dblpacm.prepared.candidates, prepared_dblpacm.prepared.statistics()
        )
        training = build_training_set(
            matrix, prepared_dblpacm.prepared.candidates, prepared_dblpacm.ground_truth, size=20, seed=3
        )
        all_labels = prepared_dblpacm.ground_truth.labels_for(prepared_dblpacm.prepared.candidates)
        assert np.array_equal(training.labels.astype(bool), all_labels[training.candidate_indices])

    def test_unknown_policy_rejected(self, prepared_dblpacm):
        matrix = FeatureVectorGenerator(("JS",)).generate(
            prepared_dblpacm.prepared.candidates, prepared_dblpacm.prepared.statistics()
        )
        with pytest.raises(ValueError):
            build_training_set(
                matrix,
                prepared_dblpacm.prepared.candidates,
                prepared_dblpacm.ground_truth,
                policy="bogus",
            )

    def test_mismatched_matrix_rejected(self, prepared_dblpacm, small_candidates, small_stats):
        matrix = FeatureVectorGenerator(("JS",)).generate(small_candidates, small_stats)
        with pytest.raises(ValueError):
            build_training_set(
                matrix, prepared_dblpacm.prepared.candidates, prepared_dblpacm.ground_truth
            )
