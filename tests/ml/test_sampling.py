"""Tests for training-set sampling (undersampling policies)."""

import numpy as np
import pytest

from repro.ml import balanced_sample, proportional_positive_sample


@pytest.fixture
def imbalanced_labels():
    """1000 candidate pairs, 50 of them positive — ER-style imbalance."""
    labels = np.zeros(1000, dtype=bool)
    labels[:50] = True
    return labels


class TestBalancedSample:
    def test_exact_balance(self, imbalanced_labels):
        sample = balanced_sample(imbalanced_labels, size=50, seed=0)
        assert len(sample) == 50
        assert sample.positives == 25
        assert sample.negatives == 25

    def test_indices_are_distinct_and_label_aligned(self, imbalanced_labels):
        sample = balanced_sample(imbalanced_labels, size=40, seed=1)
        assert len(set(sample.indices.tolist())) == len(sample)
        assert np.array_equal(sample.labels, imbalanced_labels[sample.indices])

    def test_reproducible_with_seed(self, imbalanced_labels):
        first = balanced_sample(imbalanced_labels, size=50, seed=42)
        second = balanced_sample(imbalanced_labels, size=50, seed=42)
        assert np.array_equal(first.indices, second.indices)

    def test_different_seeds_differ(self, imbalanced_labels):
        first = balanced_sample(imbalanced_labels, size=50, seed=1)
        second = balanced_sample(imbalanced_labels, size=50, seed=2)
        assert not np.array_equal(first.indices, second.indices)

    def test_small_positive_class_degrades_gracefully(self):
        labels = np.zeros(100, dtype=bool)
        labels[:3] = True
        sample = balanced_sample(labels, size=50, seed=0)
        assert sample.positives == 3  # all available positives
        assert sample.negatives == 25

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            balanced_sample(np.zeros(10, dtype=bool), size=4, seed=0)

    def test_minimum_size(self, imbalanced_labels):
        with pytest.raises(ValueError):
            balanced_sample(imbalanced_labels, size=1, seed=0)


class TestProportionalSample:
    def test_five_percent_rule(self, imbalanced_labels):
        sample = proportional_positive_sample(imbalanced_labels, positive_fraction=0.2, seed=0)
        # 20 % of 50 positives = 10 per class
        assert sample.positives == 10
        assert sample.negatives == 10

    def test_minimum_per_class(self, imbalanced_labels):
        sample = proportional_positive_sample(
            imbalanced_labels, positive_fraction=0.01, seed=0, min_per_class=5
        )
        assert sample.positives == 5

    def test_invalid_fraction(self, imbalanced_labels):
        with pytest.raises(ValueError):
            proportional_positive_sample(imbalanced_labels, positive_fraction=0.0)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            proportional_positive_sample(np.ones(10, dtype=bool))
