"""One prepared dataset, one experiment loop.

Every experiment runs its configurations on the
:class:`~repro.blocking.PreparedBlocks` that ``prepare_blocks`` returned,
held by :class:`~repro.evaluation.PreparedDataset` beside its ground truth,
and through one repetition loop, :class:`~repro.evaluation.ExperimentRunner`.
Statistics come only from ``PreparedBlocks.statistics()``: the CSR, the
candidate pairs (LCP is a node's degree in them) and their co-occurrence
aggregates are handed over, so no run recomputes them and a run's measured
time does not depend on whether another configuration ran before it.

Beside that loop stood a second one for Tables 3/4 (``evaluate_feature_set``,
``FeatureSelectionStudy`` and their ``FeatureSetScore``) over a second
prepared type that copied the blocks out and dropped the aggregates.  An AST
walk over ``src/repro`` keeps them gone, with the configuration knobs that
had one value in use; the behavioural checks run LCP-bearing configurations
with the two passes that would recompute the handed-over data made to raise.
"""

import ast
import inspect
from dataclasses import fields

import pytest

import repro.experiments as ex
import repro.weights.sparse
import repro.weights.statistics
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.core.training import build_training_set
from repro.evaluation import ExperimentRunner
from repro.experiments import ExperimentConfig
from repro.weights.registry import ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET
from test_derived_answer_guards import _spelled_names
from test_import_layering import ROOT, _parse

#: the second loop and its result type
GONE = {"FeatureSelectionStudy", "evaluate_feature_set", "FeatureSetScore"}
#: the knobs with one value in use, and the one module each may still name
GONE_KNOBS = {"scale_features": None, "positive_fraction": "ml/sampling.py"}
#: where statistics are read off the preparation, never built from the blocks
HANDOFF_PACKAGES = ("experiments", "evaluation")


def _offenders(tree: ast.AST, path: str):
    knobs = {name for name, home in GONE_KNOBS.items() if home != path}
    imported = [
        (alias.name.rpartition(".")[2], alias.lineno)
        for alias in ast.walk(tree)
        if isinstance(alias, ast.alias)
    ]
    for name, line in [*_spelled_names(tree), *imported]:
        if name in GONE or name in knobs:
            yield f"{path}:{line}: {name}"
    if path.split("/")[0] in HANDOFF_PACKAGES:
        for node in ast.walk(tree):
            function = getattr(node, "func", None)
            called = getattr(function, "id", None) or getattr(function, "attr", None)
            if isinstance(node, ast.Call) and called == "BlockStatistics":
                yield f"{path}:{node.lineno}: BlockStatistics("


def test_the_guard_sees_code():
    code = (
        "from repro.core import FeatureSelectionStudy\n"
        "stats = weights.BlockStatistics(blocks)\n"
        "pipeline = GeneralizedSupervisedMetaBlocking(scale_features=False)\n"
        "def build_training_set(positive_fraction=0.05): ...\n"
    )
    tree = ast.parse(code)
    assert sorted(_offenders(tree, "experiments/common.py")) == [
        "experiments/common.py:1: FeatureSelectionStudy",
        "experiments/common.py:2: BlockStatistics(",
        "experiments/common.py:3: scale_features",
        "experiments/common.py:4: positive_fraction",
    ]
    assert sorted(_offenders(tree, "ml/sampling.py")) == [
        "ml/sampling.py:1: FeatureSelectionStudy",
        "ml/sampling.py:3: scale_features",
    ]


def test_no_module_names_the_second_loop_or_the_one_value_knobs():
    offenders = [
        offender
        for path in sorted(ROOT.rglob("*.py"))
        for offender in _offenders(_parse(path), path.relative_to(ROOT).as_posix())
    ]
    assert not offenders, offenders


def test_the_experiment_configuration_has_no_classifier_or_scale():
    tree = _parse(ROOT / "experiments" / "common.py")
    config = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "ExperimentConfig"
    )
    members = {
        getattr(node, "name", None) or getattr(getattr(node, "target", None), "id", None)
        for node in config.body
    }
    assert not {"classifier", "classifier_factory", "scale"} & members
    assert not {"classifier", "scale"} & {field.name for field in fields(ExperimentConfig)}


def test_the_pipeline_and_the_sampler_take_no_one_value_knob():
    for function in (GeneralizedSupervisedMetaBlocking, build_training_set):
        assert not set(GONE_KNOBS) & set(inspect.signature(function).parameters)


def _refuse_recomputation(monkeypatch):
    """Make the passes that would recompute the preparation's handoff raise:
    the pairs' co-occurrence aggregates and the candidate pairs LCP reads."""

    def refuse(*args, **kwargs):
        raise AssertionError("recomputed what block preparation handed over")

    monkeypatch.setattr(repro.weights.sparse, "compute_pair_cooccurrence", refuse)
    monkeypatch.setattr(repro.weights.statistics, "reduce_memberships", refuse)


@pytest.mark.parametrize(
    "name,scale", [("DblpAcm", 0.3), ("D10K", 0.02)], ids=["clean-clean", "dirty"]
)
def test_lcp_bearing_runs_reuse_the_handed_over_statistics(monkeypatch, name, scale):
    dataset = ex.prepare_dataset(name, seed=3, scale=scale)
    config = ExperimentConfig.fast(seed=3)
    # BCl with the [21] features and RCNP with Formula 2: both read LCP
    assert "LCP" in ORIGINAL_FEATURE_SET and "LCP" in RCNP_FEATURE_SET
    pipelines = {name: ex.algorithm_pipeline(name, config) for name in ("BCl", "RCNP")}
    _refuse_recomputation(monkeypatch)
    outcomes = ExperimentRunner(repetitions=2, seed=3).run_matrix(pipelines, [dataset])
    assert [outcome.algorithm for outcome in outcomes] == ["BCl", "RCNP"]
    assert all(outcome.report.recall > 0 for outcome in outcomes)


def test_the_table3_4_sweep_and_the_runtime_figures_reuse_them(monkeypatch):
    _refuse_recomputation(monkeypatch)
    config = ExperimentConfig.fast(dataset_names=("AbtBuy",), repetitions=1, max_set_size=1)
    result = ex.run_feature_selection("RCNP", config, top_k=8)
    assert "{LCP}" in [row["feature_set"] for row in result.top_sets]
    rows = ex.run_feature_runtime([("CF-IBF", "LCP")], config, ("AbtBuy",))
    assert rows[0].total_seconds > 0
