"""Tests for effectiveness metrics, the experiment runner and report formatting."""

import numpy as np
import pytest

from repro.core import GeneralizedSupervisedMetaBlocking
from repro.datamodel import EntityIndexSpace, GroundTruth
from repro.evaluation import (
    EffectivenessReport,
    ExperimentRunner,
    average_over_datasets,
    average_reports,
    evaluate_candidates,
    evaluate_retained_mask,
    format_measure_series,
    format_table,
    format_value,
)

from reference import candidate_set


@pytest.fixture
def simple_truth_and_candidates():
    space = EntityIndexSpace(3, 3)
    truth = GroundTruth([(0, 3), (1, 4), (2, 5)], space)
    candidates = candidate_set([(0, 3), (1, 4), (0, 4), (2, 4)], space)
    return truth, candidates


class TestMetrics:
    def test_evaluate_candidates(self, simple_truth_and_candidates):
        truth, candidates = simple_truth_and_candidates
        report = evaluate_candidates(candidates, truth)
        assert report.true_positives == 2
        assert report.retained_pairs == 4
        assert report.total_duplicates == 3
        assert report.recall == pytest.approx(2 / 3)
        assert report.precision == pytest.approx(0.5)
        assert report.f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_evaluate_retained_mask_counts_blocking_misses(self):
        labels = np.array([True, False, True])
        mask = np.array([True, True, False])
        # 5 total duplicates, only 3 pairs in the candidate set
        report = evaluate_retained_mask(mask, labels, total_duplicates=5)
        assert report.true_positives == 1
        assert report.recall == pytest.approx(0.2)
        assert report.precision == pytest.approx(0.5)

    def test_retained_mask_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_retained_mask(np.array([True]), np.array([True, False]), 1)

    def test_zero_duplicates(self):
        report = evaluate_retained_mask(np.array([False]), np.array([False]), 0)
        assert report.recall == 0.0 and report.f1 == 0.0

    def test_average_reports(self):
        first = EffectivenessReport(0.8, 0.2, 0.32, 8, 40, 10)
        second = EffectivenessReport(0.6, 0.4, 0.48, 6, 15, 10)
        averaged = average_reports([first, second])
        assert averaged.recall == pytest.approx(0.7)
        assert averaged.precision == pytest.approx(0.3)
        assert averaged.f1 == pytest.approx(0.4)
        assert averaged.true_positives == 7

    def test_average_reports_empty(self):
        with pytest.raises(ValueError):
            average_reports([])

    def test_as_dict(self):
        report = EffectivenessReport(0.5, 0.25, 1 / 3, 5, 20, 10)
        assert report.as_dict()["recall"] == 0.5


class TestRunner:
    def test_run_pipeline_averages_repetitions(self, prepared_dblpacm):
        runner = ExperimentRunner(repetitions=2, seed=0)
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        outcome = runner.run_pipeline(pipeline, prepared_dblpacm)
        assert outcome.dataset == "DblpAcm"
        assert outcome.algorithm == "BLAST"
        assert len(outcome.per_run_reports) == 2
        assert 0.0 <= outcome.report.recall <= 1.0
        assert outcome.runtime_seconds > 0.0

    def test_run_matrix_and_averaging(self, prepared_dblpacm, prepared_abtbuy):
        runner = ExperimentRunner(repetitions=1, seed=0)
        pipelines = {
            "BLAST": GeneralizedSupervisedMetaBlocking(training_size=50, pruning="BLAST"),
            "BCl": GeneralizedSupervisedMetaBlocking(training_size=50, pruning="BCl"),
        }
        outcomes = runner.run_matrix(pipelines, [prepared_dblpacm, prepared_abtbuy])
        assert len(outcomes) == 4
        averages = average_over_datasets(outcomes)
        assert set(averages) == {"BLAST", "BCl"}

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            ExperimentRunner(repetitions=0)

    def test_outcome_row(self, prepared_dblpacm):
        runner = ExperimentRunner(repetitions=1, seed=0)
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50)
        row = runner.run_pipeline(pipeline, prepared_dblpacm, label="X").as_row()
        assert row["dataset"] == "DblpAcm"
        assert row["algorithm"] == "X"


class TestReporting:
    def test_format_value(self):
        assert format_value(0.12345, precision=3) == "0.123"
        assert format_value(1.2e-7) == "1.20e-07"
        assert format_value("text") == "text"
        assert format_value(5) == "5"

    def test_format_table_alignment_and_columns(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 22, "b": 0.25}]
        table = format_table(rows, title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")

    def test_format_measure_series(self):
        series = {"BLAST": {"recall": 0.9, "precision": 0.2, "f1": 0.33}}
        text = format_measure_series(series)
        assert "BLAST" in text and "0.9000" in text
