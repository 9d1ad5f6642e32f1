"""Tests for feature scaling, Platt calibration and classification metrics."""

import numpy as np
import pytest

from repro.ml import (
    ConfusionCounts,
    MinMaxScaler,
    PlattScaler,
    StandardScaler,
    accuracy_score,
    confusion_counts,
    f1_score,
    precision_score,
    recall_score,
    roc_auc_score,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        data = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        transformed = StandardScaler().fit_transform(data)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_untouched(self):
        data = np.array([[1.0, 2.0], [1.0, 4.0], [1.0, 6.0]])
        transformed = StandardScaler().fit_transform(data)
        assert np.allclose(transformed[:, 0], 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_dimension_mismatch(self, rng):
        scaler = StandardScaler().fit(rng.normal(size=(10, 3)))
        with pytest.raises(ValueError):
            scaler.transform(rng.normal(size=(5, 4)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 2)))


class TestMinMaxScaler:
    def test_unit_range(self, rng):
        data = rng.normal(size=(100, 3)) * 7 + 2
        transformed = MinMaxScaler().fit_transform(data)
        assert transformed.min() == pytest.approx(0.0)
        assert transformed.max() == pytest.approx(1.0)

    def test_constant_column(self):
        data = np.array([[2.0], [2.0]])
        transformed = MinMaxScaler().fit_transform(data)
        assert np.allclose(transformed, 0.0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((2, 2)))


@pytest.mark.parametrize(
    "scaler, fitted", [(StandardScaler, ("mean_", "scale_")), (MinMaxScaler, ("min_", "range_"))]
)
def test_transform_is_offset_then_scale_bit_for_bit_in_either_layout(rng, scaler, fitted):
    """One subtract, one in-place divide: ``(x - offset) / scale`` exactly, for
    row- and feature-major inputs, in a new array of the input's layout; the
    fitted attribute names are the snapshot format."""
    data = rng.normal(size=(300, 5)) * [1.0, 1e3, 1e-3, 7.0, 0.0] + [0.0, 5.0, -2.0, 1e6, 4.0]
    model = scaler().fit(data[:50])
    assert sorted(vars(model)) == sorted(fitted)
    offset, scale = (getattr(model, name) for name in fitted)
    assert scale[4] == 1.0  # the constant column
    expected = (data - offset) / scale
    for matrix in (np.ascontiguousarray(data), np.asfortranarray(data)):
        before = matrix.copy()
        transformed = model.transform(matrix)
        assert np.array_equal(transformed, expected)
        assert np.array_equal(matrix, before) and not np.shares_memory(transformed, matrix)
        assert transformed.flags.f_contiguous == matrix.flags.f_contiguous
    assert model.transform(np.zeros((0, 5))).shape == (0, 5)
    assert np.array_equal(scaler().fit_transform(data), scaler().fit(data).transform(data))
    with pytest.raises(ValueError, match="NaN or infinite"):
        model.transform(np.full((2, 5), np.nan))


class TestPlattScaler:
    def test_monotone_mapping(self, rng):
        scores = rng.normal(size=300)
        labels = (scores + rng.normal(scale=0.5, size=300) > 0).astype(float)
        scaler = PlattScaler().fit(scores, labels)
        probabilities = scaler.transform(np.sort(scores))
        assert np.all(np.diff(probabilities) >= -1e-12) or np.all(np.diff(probabilities) <= 1e-12)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_higher_scores_get_higher_probability(self, rng):
        scores = np.concatenate([rng.normal(-2, 1, 100), rng.normal(2, 1, 100)])
        labels = np.concatenate([np.zeros(100), np.ones(100)])
        scaler = PlattScaler().fit(scores, labels)
        assert scaler.transform(np.array([3.0]))[0] > scaler.transform(np.array([-3.0]))[0]

    def test_mismatched_input_rejected(self):
        with pytest.raises(ValueError):
            PlattScaler().fit(np.zeros(3), np.zeros(4))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            PlattScaler().fit(np.zeros(0), np.zeros(0))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PlattScaler().transform(np.zeros(3))


class TestMetrics:
    def test_confusion_counts(self):
        labels = np.array([1, 1, 0, 0, 1], dtype=bool)
        predictions = np.array([1, 0, 0, 1, 1], dtype=bool)
        counts = confusion_counts(labels, predictions)
        assert counts == ConfusionCounts(2, 1, 1, 1)
        assert counts.total == 5
        assert counts.as_dict() == {"TP": 2, "FP": 1, "TN": 1, "FN": 1}

    def test_precision_recall_f1(self):
        labels = np.array([1, 1, 0, 0, 1], dtype=bool)
        predictions = np.array([1, 0, 0, 1, 1], dtype=bool)
        assert precision_score(labels, predictions) == pytest.approx(2 / 3)
        assert recall_score(labels, predictions) == pytest.approx(2 / 3)
        assert f1_score(labels, predictions) == pytest.approx(2 / 3)
        assert accuracy_score(labels, predictions) == pytest.approx(3 / 5)

    def test_degenerate_cases(self):
        labels = np.array([0, 0], dtype=bool)
        predictions = np.array([0, 0], dtype=bool)
        assert precision_score(labels, predictions) == 0.0
        assert recall_score(labels, predictions) == 0.0
        assert f1_score(labels, predictions) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            precision_score(np.zeros(3, dtype=bool), np.zeros(4, dtype=bool))

    def test_roc_auc_perfect_ranking(self):
        labels = np.array([0, 0, 1, 1], dtype=bool)
        assert roc_auc_score(labels, np.array([0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_roc_auc_random_ranking(self):
        labels = np.array([0, 1, 0, 1], dtype=bool)
        assert roc_auc_score(labels, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.5)

    def test_roc_auc_requires_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc_score(np.ones(3, dtype=bool), np.ones(3))
