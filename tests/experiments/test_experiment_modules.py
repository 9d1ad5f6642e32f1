"""Tests for the experiment modules (fast configurations).

Each experiment module is exercised end-to-end on small generated datasets;
these tests check the structure of the outputs and the qualitative claims the
paper makes (who wins, in which direction measures move), not absolute values.
A figure / table is run through its entry of the experiment registry, as
``repro run`` and the paper benches run it, on a smaller configuration.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.experiments as ex
from repro.evaluation import ExperimentRunner
from repro.experiments import EXPERIMENTS


@pytest.fixture(scope="module")
def fast_config():
    return ex.ExperimentConfig.fast(dataset_names=("AbtBuy", "DblpAcm"), repetitions=1)


@pytest.fixture(scope="module")
def tiny_config():
    return ex.ExperimentConfig.fast(dataset_names=("AbtBuy",), repetitions=1)


class TestBlockQuality:
    def test_rows_cover_requested_datasets(self):
        rows = ex.run_block_quality(("AbtBuy", "DblpAcm"), seed=0)
        assert [row.dataset for row in rows] == ["AbtBuy", "DblpAcm"]
        for row in rows:
            assert row.candidates > 0
            assert 0.0 <= row.recall <= 1.0
            assert row.precision < 0.1  # blocking alone has very low precision

    def test_formatting(self):
        rows = ex.run_block_quality(("AbtBuy",), seed=0)
        text = ex.format_block_quality(rows)
        assert "AbtBuy" in text and "|C|" in text

    def test_paper_reference_has_all_datasets(self):
        reference = EXPERIMENTS["table2"].reference
        assert len(reference) == 9
        assert reference["AbtBuy"]["recall"] == pytest.approx(0.948)


class TestCommonHelpers:
    def test_prepared_dataset_is_prepare_blocks_on_the_benchmark(self):
        from repro.blocking import prepare_blocks
        from repro.datasets import load_benchmark

        dataset = load_benchmark("DblpAcm", seed=11, scale=0.3)
        direct = prepare_blocks(dataset.first, dataset.second)
        prepared = ex.prepare_dataset("DblpAcm", seed=11, scale=0.3)
        assert prepared.name == "DblpAcm"
        assert np.array_equal(direct.candidates.left, prepared.prepared.candidates.left)
        assert np.array_equal(direct.candidates.right, prepared.prepared.candidates.right)
        assert set(prepared.ground_truth) == set(dataset.ground_truth)

    def test_a_dirty_name_prepares_the_dirty_dataset(self):
        from repro.blocking import prepare_blocks
        from repro.datasets import load_dirty_dataset

        dataset = load_dirty_dataset("D10K", seed=5, scale=0.02)
        direct = prepare_blocks(dataset.collection)
        prepared = ex.prepare_dataset("D10K", seed=5, scale=0.02)
        assert not prepared.prepared.candidates.index_space.is_clean_clean
        assert np.array_equal(direct.candidates.left, prepared.prepared.candidates.left)
        assert np.array_equal(direct.candidates.right, prepared.prepared.candidates.right)
        assert set(prepared.ground_truth) == set(dataset.ground_truth)

    def test_config_threads_into_the_standard_pipelines(self):
        from repro.experiments.common import STANDARD_FEATURES
        from repro.weights.registry import ORIGINAL_FEATURE_SET

        config = ex.ExperimentConfig.fast(seed=5, training_size=70)
        for pruning in ("BLAST", "RCNP", "BCl", "CNP"):
            pipeline = ex.algorithm_pipeline(pruning, config)
            assert pipeline.pruning.name == pruning
            assert (pipeline.seed, pipeline.training_size) == (5, 70)
            standard = STANDARD_FEATURES.get(pruning, ORIGINAL_FEATURE_SET)
            assert tuple(pipeline.feature_set) == tuple(standard)
            assert ex.algorithm_pipeline(pruning, config, training_size=30).training_size == 30


class TestPruningSelection:
    def test_figure5_weight_based(self, fast_config):
        entry = EXPERIMENTS["fig5"]
        result = entry.run(fast_config, False)
        series = result.series()
        assert set(series) == {"BCl", "WEP", "WNP", "RWNP", "BLAST"}
        # the paper's qualitative claim: the new weight-based algorithms trade a
        # little recall for clearly higher precision than the BCl baseline
        assert series["RWNP"]["precision"] >= series["BCl"]["precision"]
        assert series["WEP"]["precision"] >= series["BCl"]["precision"]
        text = entry.report(result)
        assert "BLAST" in text and "paper-reported averages" in text

    def test_figure6_cardinality_based(self, fast_config):
        result = EXPERIMENTS["fig6"].run(fast_config, False)
        series = result.series()
        assert set(series) == {"CEP", "CNP", "RCNP"}
        # RCNP is the paper's winner on precision among cardinality algorithms
        assert series["RCNP"]["precision"] >= series["CNP"]["precision"] - 0.02


class TestFeatureSelection:
    def test_table3_structure(self, tiny_config):
        results = EXPERIMENTS["tables3-4"].run(replace(tiny_config, max_set_size=1), False)
        assert list(results) == ["BLAST", "RCNP"]
        result = results["BLAST"]
        assert result.algorithm == "BLAST"
        # the eight single-feature sets, the top ten of them reported
        assert len(result.top_sets) == 8
        assert all(
            set(row) == {"id", "feature_set", "recall", "precision", "f1", "runtime_seconds"}
            for row in result.top_sets
        )
        text = ex.format_feature_selection(result)
        assert "BLAST" in text

    def test_ranked_by_f1_then_runtime_then_id(self, tiny_config):
        """Each set runs through the runner on every dataset; the rows are its
        averages, best F1 first, ties broken by lower run-time, then by id."""
        config = replace(tiny_config, dataset_names=("AbtBuy", "DblpAcm"), max_set_size=2)
        result = ex.run_feature_selection("RCNP", config, top_k=5)
        keys = [(-row["f1"], row["runtime_seconds"], row["id"]) for row in result.top_sets]
        assert len(keys) == 5 and keys == sorted(keys)
        best = result.top_sets[0]
        features = tuple(best["feature_set"].strip("{}").split(", "))
        datasets = [ex.prepare_dataset(name, seed=config.seed) for name in config.dataset_names]
        runner = ExperimentRunner(repetitions=config.repetitions, seed=config.seed)
        pipeline = ex.algorithm_pipeline("RCNP", config, features)
        outcomes = [runner.run_pipeline(pipeline, dataset) for dataset in datasets]
        assert best["f1"] == pytest.approx(np.mean([outcome.report.f1 for outcome in outcomes]))

    def test_references(self):
        reference = EXPERIMENTS["tables3-4"].reference
        assert reference["BLAST"]["f1"] == pytest.approx(0.2892)
        assert reference["RCNP"]["f1"] == pytest.approx(0.353)


class TestFeatureRuntime:
    def test_runtime_rows(self, tiny_config):
        rows = ex.run_feature_runtime(
            [("CF-IBF", "RS"), ("CF-IBF", "LCP")],
            tiny_config,
            dataset_names=("AbtBuy",),
        )
        assert len(rows) == 2
        assert all(row.total_seconds > 0 for row in rows)
        assert ex.lcp_free_sets_are_faster(rows) in (True, False)
        text = ex.format_feature_runtime(rows, "Figure 7")
        assert "AbtBuy" in text

    def test_top10_sets_declared(self):
        assert len(ex.BLAST_TOP10) == 10
        assert len(ex.RCNP_TOP10) == 10
        assert all("LCP" not in features for features in ex.BLAST_TOP10)
        assert all("LCP" in features for features in ex.RCNP_TOP10)


class TestAlgorithmComparison:
    def test_figure8(self, fast_config):
        entry = EXPERIMENTS["fig8"]
        result = entry.run(fast_config, False)
        series = result.series()
        assert set(series) == {"BCl", "BLAST", "CNP", "RCNP"}
        assert "Figure 8" in entry.report(result)

    def test_figure10(self, tiny_config):
        rows = ex.run_figure10(tiny_config, dataset_names=("AbtBuy",))
        assert {row["algorithm"] for row in rows} == {"BCl", "BLAST", "CNP", "RCNP"}
        assert ex.format_figure10(rows)


class TestTrainingSize:
    def test_sweep_structure(self, tiny_config):
        points = EXPERIMENTS["fig11-14"].run(tiny_config, False)["BLAST"]
        assert [point.training_size for point in points] == list(ex.FAST_TRAINING_SIZES)
        assert all(point.algorithm == "BLAST" for point in points)
        assert ex.format_training_size(points, "Figure 11")
        assert ex.small_training_set_suffices(points, small=50, tolerance=0.5)

    def test_figure13_two_series(self, tiny_config):
        series = EXPERIMENTS["fig13"].run(tiny_config, False)
        assert set(series) == {"BCl", "BLAST"}

    def test_small_training_set_check_requires_size(self, tiny_config):
        points = ex.run_training_size_sweep("BLAST", tiny_config, sizes=(20,))
        with pytest.raises(ValueError):
            ex.small_training_set_suffices(points, small=50)


class TestProbabilityDensity:
    def test_snapshots(self, tiny_config):
        snapshots = ex.run_probability_density(
            "AbtBuy", training_sizes=(50, 200), config=tiny_config
        )
        assert [snapshot.training_size for snapshot in snapshots] == [50, 200]
        for snapshot in snapshots:
            assert snapshot.matching_density.shape == snapshot.non_matching_density.shape
            assert 0.0 <= snapshot.average_threshold <= 1.0
        assert ex.probabilities_shift_upwards(snapshots) in (True, False)
        assert ex.format_probability_density(snapshots)


class TestFinalComparison:
    def test_table5(self, tiny_config):
        result = EXPERIMENTS["table5"].run(tiny_config, False)
        algorithms = {outcome.algorithm for outcome in result.outcomes}
        assert algorithms == {"BLAST", "BCl1", "BCl2"}
        assert ex.format_final_comparison(result)

    def test_table7(self, tiny_config):
        result = EXPERIMENTS["table7"].run(tiny_config, False)
        algorithms = {outcome.algorithm for outcome in result.outcomes}
        assert algorithms == {"RCNP", "CNP1", "CNP2"}
        grouped = result.by_algorithm()
        assert set(grouped) == algorithms

    def test_paper_references_complete(self):
        table5 = EXPERIMENTS["table5"].reference
        table7 = EXPERIMENTS["table7"].reference
        assert set(table5) == {"BLAST", "BCl1", "BCl2"}
        assert set(table7) == {"RCNP", "CNP1", "CNP2"}
        for per_dataset in list(table5.values()) + list(table7.values()):
            assert len(per_dataset) == 9


class TestCommonBlocks:
    def test_distribution_sums_to_one(self, tiny_config):
        distributions = ex.run_common_block_distribution(("AbtBuy", "DblpAcm"), tiny_config)
        for distribution in distributions:
            assert sum(distribution.portions.values()) == pytest.approx(1.0)
        assert ex.format_common_blocks(distributions, "Figures 15/16")

    def test_noisy_dataset_has_more_single_block_duplicates(self, tiny_config):
        distributions = {
            d.dataset: d
            for d in ex.run_common_block_distribution(("AbtBuy", "DblpAcm"), tiny_config)
        }
        noisy = distributions["AbtBuy"]
        clean = distributions["DblpAcm"]
        assert (
            noisy.single_block_portion + noisy.missed_portion
            > clean.single_block_portion + clean.missed_portion
        )


class TestScalability:
    def test_scalability_rows_and_speedups(self):
        config = ex.ExperimentConfig(repetitions=1, seed=0)
        result = ex.run_scalability(config, dataset_names=("D10K", "D50K"), scale=0.02)
        assert {row["dataset"] for row in result.rows()} == {"D10K", "D50K"}
        speedups = result.speedups()
        assert all(row["dataset"] == "D50K" for row in speedups)
        assert all(row["speedup"] > 0 for row in speedups)
        assert ex.format_scalability(result)
        assert ex.format_speedups(result)

    def test_table6_models(self):
        config = ex.ExperimentConfig(repetitions=1, seed=0)
        snapshots = ex.run_table6("D100K", iterations=2, config=config, scale=0.008)
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert set(snapshot.coefficients) == {"CF-IBF", "RACCB", "RS", "NRS"}
            assert snapshot.retained_pairs >= snapshot.detected_duplicates >= 0
        assert ex.format_table6(snapshots)
