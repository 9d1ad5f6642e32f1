"""One prepared dataset, one experiment loop.

Every experiment runs its configurations on the
:class:`~repro.blocking.PreparedBlocks` that ``prepare_blocks`` returned,
held by :class:`~repro.evaluation.PreparedDataset` beside its ground truth,
and through one repetition loop, :class:`~repro.evaluation.ExperimentRunner`.
Statistics come only from ``PreparedBlocks.statistics()``: the CSR, the
candidate pairs (LCP is a node's degree in them) and their co-occurrence
aggregates are handed over, so no run recomputes them and a run's measured
time does not depend on whether another configuration ran before it.  The
second Tables 3/4 loop and the one-value knobs stay gone by the rows of
``tests/test_guards.py``; these checks run LCP-bearing configurations with
the pass that would recompute the handed-over aggregates made to raise.
"""

import pytest

import repro.experiments as ex
import repro.weights.statistics
from repro.evaluation import ExperimentRunner
from repro.experiments import ExperimentConfig
from repro.weights.registry import ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET

pytestmark = pytest.mark.equivalence


def _refuse_recomputation(monkeypatch):
    """Make the pass that would recompute the preparation's handoff raise:
    the pairs' co-occurrence aggregates (LCP reads the handed-over pairs,
    which statistics have no way to derive again)."""

    def refuse(*args, **kwargs):
        raise AssertionError("recomputed what block preparation handed over")

    monkeypatch.setattr(repro.weights.statistics, "compute_pair_cooccurrence", refuse)


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
    result = ex.run_feature_selection(("RCNP",), config, top_k=8)["RCNP"]
    assert "{LCP}" in [row["feature_set"] for row in result.top_sets]
    rows = ex.run_feature_runtime([("CF-IBF", "LCP")], config, ("AbtBuy",))
    assert rows[0].total_seconds > 0
