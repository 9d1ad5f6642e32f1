"""Tests for the from-scratch probabilistic classifiers."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import reference_sigmoid
from repro.ml import GaussianNB, LinearSVC, LogisticRegression
from repro.ml.logistic_regression import _sigmoid


def roc_auc_score(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney U statistic: the quality
    bar that the from-scratch classifiers rank matching pairs above
    non-matching ones."""
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError("labels and scores must have the same shape")
    n_positive = int(labels.sum())
    n_negative = int((~labels).sum())
    if n_positive == 0 or n_negative == 0:
        raise ValueError("ROC AUC requires both classes to be present")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(order, dtype=np.float64)
    ranks[order] = np.arange(1, len(scores) + 1)
    # average ranks for ties
    sorted_scores = scores[order]
    start = 0
    for end in range(1, len(sorted_scores) + 1):
        if end == len(sorted_scores) or sorted_scores[end] != sorted_scores[start]:
            average = (start + end + 1) / 2.0
            ranks[order[start:end]] = average
            start = end
    positive_rank_sum = ranks[labels].sum()
    u_statistic = positive_rank_sum - n_positive * (n_positive + 1) / 2.0
    return float(u_statistic / (n_positive * n_negative))


def make_separable(rng, n=200, gap=3.0):
    """Two Gaussian blobs separated along both feature axes."""
    negatives = rng.normal(loc=0.0, scale=1.0, size=(n // 2, 2))
    positives = rng.normal(loc=gap, scale=1.0, size=(n // 2, 2))
    features = np.vstack([negatives, positives])
    labels = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    order = rng.permutation(n)
    return features[order], labels[order]


def make_overlapping(rng, n=300):
    """Two overlapping blobs — probabilities should not saturate."""
    return make_separable(rng, n=n, gap=1.0)


CLASSIFIERS = [
    ("logistic", lambda: LogisticRegression()),
    ("svm", lambda: LinearSVC(random_state=0)),
    ("nb", lambda: GaussianNB()),
]


@pytest.mark.parametrize("name,factory", CLASSIFIERS)
class TestClassifierContract:
    def test_probabilities_in_unit_interval(self, name, factory, rng):
        features, labels = make_separable(rng)
        model = factory().fit(features, labels)
        probabilities = model.predict_proba(features)
        assert probabilities.shape == (len(labels),)
        assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)

    def test_separable_data_high_accuracy(self, name, factory, rng):
        features, labels = make_separable(rng)
        model = factory().fit(features, labels)
        predictions = model.predict(features)
        accuracy = np.mean(predictions == labels)
        assert accuracy > 0.95

    def test_ranking_quality_on_overlapping_data(self, name, factory, rng):
        features, labels = make_overlapping(rng)
        model = factory().fit(features, labels)
        auc = roc_auc_score(labels.astype(bool), model.predict_proba(features))
        assert auc > 0.75

    def test_fit_returns_self(self, name, factory, rng):
        features, labels = make_separable(rng, n=40)
        model = factory()
        assert model.fit(features, labels) is model

    def test_predict_before_fit_raises(self, name, factory):
        with pytest.raises(RuntimeError):
            factory().predict_proba(np.zeros((2, 2)))

    def test_single_class_training_rejected(self, name, factory):
        features = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError):
            factory().fit(features, np.zeros(10))

    def test_empty_training_rejected(self, name, factory):
        with pytest.raises(ValueError):
            factory().fit(np.zeros((0, 2)), np.zeros(0))

    def test_feature_dimension_mismatch_rejected(self, name, factory, rng):
        features, labels = make_separable(rng, n=40)
        model = factory().fit(features, labels)
        with pytest.raises(ValueError):
            model.predict_proba(np.zeros((3, 5)))

    def test_works_on_tiny_balanced_sample(self, name, factory, rng):
        """The paper's headline setting: 25 + 25 labelled instances."""
        features, labels = make_separable(rng, n=50)
        model = factory().fit(features, labels)
        probabilities = model.predict_proba(features)
        assert roc_auc_score(labels.astype(bool), probabilities) > 0.9


class TestLogisticRegressionSpecifics:
    def test_deterministic_fit(self, rng):
        features, labels = make_separable(rng)
        first = LogisticRegression().fit(features, labels)
        second = LogisticRegression().fit(features, labels)
        assert np.allclose(first.coef_, second.coef_)
        assert first.intercept_ == pytest.approx(second.intercept_)

    def test_regularisation_shrinks_weights(self, rng):
        features, labels = make_separable(rng)
        weak = LogisticRegression(regularization=1e-6).fit(features, labels)
        strong = LogisticRegression(regularization=10.0).fit(features, labels)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogisticRegression(regularization=-1.0)
        with pytest.raises(ValueError):
            LogisticRegression(max_iter=0)

    def test_decision_function_monotone_with_probability(self, rng):
        features, labels = make_overlapping(rng)
        model = LogisticRegression().fit(features, labels)
        scores = model.decision_function(features)
        probabilities = model.predict_proba(features)
        order = np.argsort(scores)
        assert np.all(np.diff(probabilities[order]) >= -1e-12)


    def test_decision_function_is_the_column_ordered_sum(self, rng):
        """``((x0*w0 + x1*w1) + ...) + b`` with each step rounded: no BLAS, no FMA."""
        model = LogisticRegression()
        model.coef_, model.intercept_ = rng.normal(size=5), 0.37
        features = rng.normal(size=(64, 5)) * 50
        expected = []
        for row in features.tolist():
            score = 0.0  # not sum(): it compensates its float additions from 3.12 on
            for value, weight in zip(row, model.coef_.tolist()):
                score += value * weight
            expected.append(score + 0.37)
        assert model.decision_function(features).tolist() == expected
        with pytest.raises(ValueError):
            model.decision_function(features[:, :4])
        with pytest.raises(ValueError):
            model.decision_function(features[0])

    def test_fit_leaves_numpy_ma_unimported(self):
        """The first fit of a process costs no ``numpy.ma`` import (10-30 ms,
        paid by the first ``np.unique`` call): label checks are comparisons."""
        code = (
            "import sys, numpy as np\n"
            "from repro.ml import LogisticRegression\n"
            "LogisticRegression().fit(np.array([[0.0], [1.0], [2.0], [3.0]]), [0, 0, 1, 1])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["False"]


class TestSigmoid:
    """``exp(-|v|)`` + one ``np.where``: the two-branch form's bits, not its passes."""

    def test_equals_the_two_branch_form_on_the_whole_range(self):
        values = np.concatenate(
            [np.linspace(-750, 750, 30001), [0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320]]
        )
        assert np.array_equal(_sigmoid(values), reference_sigmoid(values))
        assert _sigmoid(np.array([-np.inf, -0.0, 0.0, np.inf])).tolist() == [0.0, 0.5, 0.5, 1.0]
        assert _sigmoid(np.zeros(0)).shape == (0,)
        untouched = np.array([-2.0, 3.0])
        _sigmoid(untouched)
        assert untouched.tolist() == [-2.0, 3.0]

    @given(values=hnp.arrays(np.float64, st.integers(0, 50), elements=st.floats(allow_nan=False)))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_two_branch_form_on_any_floats(self, values):
        assert np.array_equal(_sigmoid(values), reference_sigmoid(values))


class TestLinearSVCSpecifics:
    def test_fixed_seed_reproducible(self, rng):
        features, labels = make_separable(rng)
        first = LinearSVC(random_state=3).fit(features, labels)
        second = LinearSVC(random_state=3).fit(features, labels)
        assert np.allclose(first.coef_, second.coef_)

    def test_uncalibrated_mode(self, rng):
        features, labels = make_separable(rng)
        model = LinearSVC(random_state=0, calibrate=False).fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinearSVC(regularization=0.0)
        with pytest.raises(ValueError):
            LinearSVC(epochs=0)


class TestGaussianNBSpecifics:
    def test_class_priors_learned(self, rng):
        features, labels = make_separable(rng, n=100)
        model = GaussianNB().fit(features, labels)
        assert model.class_prior_.sum() == pytest.approx(1.0)

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            GaussianNB(var_smoothing=-1.0)


class TestRocAuc:
    def test_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1], dtype=bool)
        assert roc_auc_score(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_random_ranking(self):
        labels = np.array([0, 1, 0, 1], dtype=bool)
        assert roc_auc_score(labels, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(3, dtype=bool), np.ones(3))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            roc_auc_score(np.array([0, 1, 1], dtype=bool), np.ones(4))
