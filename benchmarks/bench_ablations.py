"""Ablation benches for the design choices the paper fixes or claims robust.

* classifier family (logistic regression vs linear SVM vs Gaussian NB) — the
  paper claims robustness to the classification algorithm;
* SVM probability calibration (Platt scaling vs raw-margin squashing);
* BLAST's pruning ratio r (the paper fixes 0.35 from preliminary experiments);
* Block Filtering ratio (the paper fixes 0.8).
"""

import numpy as np

from repro.blocking import prepare_blocks
from repro.core import GeneralizedSupervisedMetaBlocking, SupervisedBLAST
from repro.datasets import load_benchmark
from repro.evaluation import ExperimentRunner, evaluate_candidates, format_table
from repro.ml import GaussianNB, LinearSVC, LogisticRegression
from repro.weights import BLAST_FEATURE_SET


def _run_blast(dataset, classifier_factory, pruning="BLAST", seed=0):
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=BLAST_FEATURE_SET,
        pruning=pruning,
        training_size=50,
        classifier_factory=classifier_factory,
        seed=seed,
    )
    runner = ExperimentRunner(repetitions=2, seed=seed)
    return runner.run_pipeline(pipeline, dataset)


def test_ablation_classifier_family(benchmark, abtbuy_prepared, report_sink):
    """Logistic regression, linear SVM and Gaussian NB should behave similarly."""
    factories = {
        "logistic-regression": LogisticRegression,
        "linear-svm": lambda: LinearSVC(random_state=0),
        "gaussian-nb": GaussianNB,
    }

    def run_all():
        return {
            name: _run_blast(abtbuy_prepared, factory) for name, factory in factories.items()
        }

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "classifier": name,
            "recall": outcome.report.recall,
            "precision": outcome.report.precision,
            "f1": outcome.report.f1,
        }
        for name, outcome in outcomes.items()
    ]
    report_sink(
        "ablation_classifier",
        format_table(rows, title="Ablation — classifier family (BLAST on AbtBuy)"),
    )

    f1_values = [row["f1"] for row in rows]
    recalls = [row["recall"] for row in rows]
    assert min(recalls) > 0.6
    assert max(f1_values) - min(f1_values) < 0.25  # robust to the classifier choice


def test_ablation_svm_calibration(benchmark, abtbuy_prepared, report_sink):
    """Platt-calibrated SVM probabilities vs raw-margin logistic squashing."""
    def run_both():
        return {
            "platt-calibrated": _run_blast(
                abtbuy_prepared, lambda: LinearSVC(random_state=0, calibrate=True)
            ),
            "raw-margin": _run_blast(
                abtbuy_prepared, lambda: LinearSVC(random_state=0, calibrate=False)
            ),
        }

    outcomes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    rows = [
        {
            "calibration": name,
            "recall": outcome.report.recall,
            "precision": outcome.report.precision,
            "f1": outcome.report.f1,
        }
        for name, outcome in outcomes.items()
    ]
    report_sink(
        "ablation_calibration",
        format_table(rows, title="Ablation — SVM probability calibration (BLAST on AbtBuy)"),
    )
    assert all(row["recall"] > 0.5 for row in rows)


def test_ablation_blast_ratio(benchmark, abtbuy_prepared, report_sink):
    """Sweep BLAST's pruning ratio r around the paper's 0.35."""
    ratios = (0.2, 0.35, 0.5, 0.65)

    def run_sweep():
        outcomes = {}
        for ratio in ratios:
            pipeline = GeneralizedSupervisedMetaBlocking(
                feature_set=BLAST_FEATURE_SET,
                pruning=SupervisedBLAST(ratio=ratio),
                training_size=50,
                seed=0,
            )
            runner = ExperimentRunner(repetitions=2, seed=0)
            outcomes[ratio] = runner.run_pipeline(pipeline, abtbuy_prepared, label=f"r={ratio}")
        return outcomes

    outcomes = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        {
            "ratio": ratio,
            "recall": outcome.report.recall,
            "precision": outcome.report.precision,
            "f1": outcome.report.f1,
        }
        for ratio, outcome in outcomes.items()
    ]
    report_sink(
        "ablation_blast_ratio",
        format_table(rows, title="Ablation — BLAST pruning ratio r (AbtBuy)"),
    )

    # larger r prunes deeper: recall must not increase with r
    recalls = [row["recall"] for row in rows]
    assert all(later <= earlier + 1e-9 for earlier, later in zip(recalls, recalls[1:]))
    # precision must not decrease with r, as long as anything is still retained
    retained = [row for row in rows if row["recall"] > 0]
    precisions = [row["precision"] for row in retained]
    assert all(later >= earlier - 0.02 for earlier, later in zip(precisions, precisions[1:]))


def test_ablation_block_filtering_ratio(benchmark, report_sink):
    """Sweep the Block Filtering ratio around the paper's 0.8."""
    dataset = load_benchmark("AbtBuy", seed=0)
    ratios = (0.6, 0.8, 1.0)

    def run_sweep():
        rows = []
        for ratio in ratios:
            prepared = prepare_blocks(dataset.first, dataset.second, filtering_ratio=ratio)
            report = evaluate_candidates(prepared.candidates, dataset.ground_truth)
            rows.append(
                {
                    "filtering_ratio": ratio,
                    "candidates": len(prepared.candidates),
                    "recall": report.recall,
                    "precision": report.precision,
                }
            )
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report_sink(
        "ablation_block_filtering",
        format_table(rows, title="Ablation — Block Filtering ratio (AbtBuy input blocks)"),
    )

    # lower ratios keep fewer candidates (deeper filtering)...
    candidate_counts = [row["candidates"] for row in rows]
    assert candidate_counts == sorted(candidate_counts)
    # ...while recall stays close to the unfiltered level
    assert min(row["recall"] for row in rows) >= rows[-1]["recall"] - 0.08
