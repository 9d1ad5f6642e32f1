"""Tests for the from-scratch probabilistic classifiers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference import reference_sigmoid
from repro.ml import GaussianNB, LinearSVC, LogisticRegression, roc_auc_score
from repro.ml.logistic_regression import _sigmoid


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
