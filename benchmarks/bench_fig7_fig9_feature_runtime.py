"""Bench E5 — Figures 7 & 9: run-time of the top-10 feature sets.

The paper measures the feature-generation + scoring time of the top-10
feature sets of BLAST (Figure 7) and RCNP (Figure 9) on the two largest
datasets (Movies, WalmartAmazon).  The key qualitative outcome is that the
LCP-free sets (all of BLAST's) are cheaper than the LCP-bearing ones (all of
RCNP's).
"""

import pytest

from repro.experiments import (
    BLAST_TOP10,
    RCNP_TOP10,
    format_feature_runtime,
    lcp_free_sets_are_faster,
    run_feature_runtime,
)


@pytest.mark.parametrize(
    "figure,feature_sets",
    [("fig7", BLAST_TOP10), ("fig9", RCNP_TOP10)],
    ids=["figure7_blast_sets", "figure9_rcnp_sets"],
)
def test_feature_set_runtimes(
    benchmark,
    small_config,
    report_sink,
    largest_datasets,
    full_mode,
    figure,
    feature_sets,
):
    """Time every top-10 feature set on the largest generated datasets."""
    selected = feature_sets if full_mode else feature_sets[:4]
    rows = benchmark.pedantic(
        run_feature_runtime,
        args=(selected, small_config),
        kwargs=dict(dataset_names=largest_datasets),
        rounds=1,
        iterations=1,
    )
    title = (
        "Figure 7 — run-time of BLAST's top feature sets"
        if figure == "fig7"
        else "Figure 9 — run-time of RCNP's top feature sets"
    )
    report_sink(f"{figure}_feature_runtime", format_feature_runtime(rows, title))
    assert all(row.total_seconds > 0 for row in rows)


def test_fig7_vs_fig9_lcp_cost(benchmark, small_config, report_sink, largest_datasets):
    """The paper's headline: BLAST's LCP-free sets are faster than RCNP's sets."""
    def run_both():
        blast_rows = run_feature_runtime(
            BLAST_TOP10[:2], small_config, dataset_names=largest_datasets[:1]
        )
        rcnp_rows = run_feature_runtime(
            RCNP_TOP10[:2], small_config, dataset_names=largest_datasets[:1]
        )
        return blast_rows + rcnp_rows

    rows = benchmark.pedantic(run_both, rounds=1, iterations=1)
    report_sink(
        "fig7_fig9_lcp_cost",
        format_feature_runtime(rows, "Figures 7 vs 9 — LCP-free vs LCP-bearing feature sets"),
    )
    # Note: in this reproduction LCP is read off the candidate pairs as a node
    # degree and cached in BlockStatistics, so — unlike the paper's
    # implementation — LCP-bearing feature sets are not guaranteed to be slower
    # (tests/integration/test_paper_claims.py checks the claim on the per-pair
    # reference).  The report above records which group is faster on this machine.
    assert all(row.total_seconds > 0 for row in rows)
    assert isinstance(lcp_free_sets_are_faster(rows), bool)
