"""Integration tests for the paper's headline claims.

These run the full pipeline on generated benchmark datasets and assert the
*qualitative* findings of the evaluation section — the direction of every
comparison, not the absolute numbers (our substrate is a synthetic generator,
not the original corpora).
"""

import numpy as np
import pytest

from repro.core import GeneralizedSupervisedMetaBlocking
from repro.evaluation import ExperimentRunner, average_over_datasets, evaluate_result
from repro.weights import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET, RCNP_FEATURE_SET


@pytest.fixture(scope="module")
def datasets(prepared_abtbuy, prepared_dblpacm):
    return [prepared_abtbuy, prepared_dblpacm]


def run_algorithms(datasets, configurations, repetitions=2, seed=0):
    runner = ExperimentRunner(repetitions=repetitions, seed=seed)
    outcomes = runner.run_matrix(configurations, datasets)
    return average_over_datasets(outcomes)


class TestClaimBlastVsBaseline:
    """Section 5.2/5.3: BLAST outperforms the BCl baseline on precision and F1."""

    def test_blast_beats_bcl_on_f1(self, datasets):
        averages = run_algorithms(
            datasets,
            {
                "BLAST": GeneralizedSupervisedMetaBlocking(
                    feature_set=BLAST_FEATURE_SET, pruning="BLAST", training_size=50
                ),
                "BCl": GeneralizedSupervisedMetaBlocking(
                    feature_set=ORIGINAL_FEATURE_SET, pruning="BCl", training_size=50
                ),
            },
        )
        assert averages["BLAST"].precision >= averages["BCl"].precision
        assert averages["BLAST"].f1 >= averages["BCl"].f1
        # and recall stays comparable (within a few points)
        assert averages["BLAST"].recall >= averages["BCl"].recall - 0.07


class TestClaimRcnpVsCnp:
    """Section 5.2: RCNP trades a little recall for clearly higher precision than CNP."""

    def test_rcnp_beats_cnp_on_precision_and_f1(self, datasets):
        averages = run_algorithms(
            datasets,
            {
                "RCNP": GeneralizedSupervisedMetaBlocking(
                    feature_set=RCNP_FEATURE_SET, pruning="RCNP", training_size=50
                ),
                "CNP": GeneralizedSupervisedMetaBlocking(
                    feature_set=RCNP_FEATURE_SET, pruning="CNP", training_size=50
                ),
            },
        )
        assert averages["RCNP"].precision >= averages["CNP"].precision
        assert averages["RCNP"].f1 >= averages["CNP"].f1


class TestClaimDeeperPruningOrdering:
    """Reciprocal variants prune deeper: RWNP ⊆ WNP and precision is not lower."""

    def test_rwnp_vs_wnp(self, prepared_abtbuy):
        reports = {}
        retained = {}
        for pruning in ("WNP", "RWNP"):
            pipeline = GeneralizedSupervisedMetaBlocking(
                feature_set=ORIGINAL_FEATURE_SET, pruning=pruning, training_size=50, seed=1
            )
            result = pipeline.run(
                prepared_abtbuy.prepared.blocks,
                prepared_abtbuy.prepared.candidates,
                prepared_abtbuy.ground_truth,
                stats=prepared_abtbuy.prepared.statistics(),
            )
            reports[pruning] = evaluate_result(result, prepared_abtbuy.ground_truth)
            retained[pruning] = result.retained_count
        assert retained["RWNP"] <= retained["WNP"]
        assert reports["RWNP"].precision >= reports["WNP"].precision


class TestClaimSmallTrainingSetSuffices:
    """Section 5.4: 50 labelled instances already achieve high effectiveness.

    The paper's strong form (F1 *drops* as the training set grows) depends on
    the probability distribution of the original corpora; on the synthetic
    benchmarks we assert the robust form: recall with 50 labels stays at the
    level reached with 500, and F1 stays within the same order of magnitude.
    """

    def test_fifty_labels_already_effective(self, prepared_abtbuy):
        reports = {}
        for size in (50, 500):
            pipeline = GeneralizedSupervisedMetaBlocking(
                feature_set=BLAST_FEATURE_SET, pruning="BLAST", training_size=size, seed=2
            )
            runner = ExperimentRunner(repetitions=3, seed=2)
            reports[size] = runner.run_pipeline(pipeline, prepared_abtbuy).report
        assert reports[50].recall >= reports[500].recall - 0.05
        assert reports[50].f1 >= 0.5 * reports[500].f1
        assert reports[50].f1 > 0.2  # far above the input block collection's F1

    def test_recall_does_not_collapse_with_small_training(self, prepared_dblpacm):
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET, pruning="BLAST", training_size=50, seed=0
        )
        result = pipeline.run(
            prepared_dblpacm.prepared.blocks,
            prepared_dblpacm.prepared.candidates,
            prepared_dblpacm.ground_truth,
            stats=prepared_dblpacm.prepared.statistics(),
        )
        report = evaluate_result(result, prepared_dblpacm.ground_truth)
        assert report.recall > 0.9


class TestClaimLcpIsExpensive:
    """Section 5.3: dropping LCP from a feature set never slows it down.

    The paper's absolute speed-ups come from its Spark implementation at full
    dataset scale; the scale-independent form of the claim is that adding LCP
    to an otherwise identical feature set adds measurable work (it has to
    iterate over every block of every entity) and never makes it faster.

    That claim is about the per-entity LCP enumeration, which the library no
    longer performs (LCP is read off the candidate pairs as a node degree), so
    it is checked on the per-pair reference (``reference_feature_matrix``), whose
    ``BlockStatistics.local_candidate_counts`` still enumerates every block.

    The work is counted, not timed: the reference's LCP adds ~2 % of CPU time
    here, which no timing statistic on a shared box separates from its noise
    reliably.  A block visit is one member of one block the feature
    computation enumerates; the base set enumerates none, and LCP adds exactly
    one pass over every block of every entity, ``sum |B_i|`` visits.
    """

    def test_adding_lcp_adds_feature_work(self, prepared_abtbuy, monkeypatch):
        from reference import reference_feature_matrix
        from repro.datamodel import BlockCollection
        from repro.weights import BlockStatistics

        base_features = ("CF-IBF", "RACCB", "JS")
        enumerate_blocks = BlockCollection.__iter__

        def block_visits(feature_set):
            stats = BlockStatistics(prepared_abtbuy.prepared.blocks)  # fresh, uncached LCP
            visits = 0

            def counted(collection):
                nonlocal visits
                for block in enumerate_blocks(collection):
                    visits += block.size()
                    yield block

            with monkeypatch.context() as patch:
                patch.setattr(BlockCollection, "__iter__", counted)
                reference_feature_matrix(feature_set, prepared_abtbuy.prepared.candidates, stats)
            return visits

        without_lcp = block_visits(base_features)
        with_lcp = block_visits(base_features + ("LCP",))
        assert without_lcp == 0
        assert with_lcp == prepared_abtbuy.prepared.blocks.total_block_assignments() > 0


class TestClaimMetaBlockingImprovesBlocks:
    """Definition 2: Pr(B') >> Pr(B) while Re(B') ~ Re(B), on every dataset."""

    @pytest.mark.parametrize("fixture_name", ["prepared_abtbuy", "prepared_dblpacm"])
    def test_precision_gain(self, request, fixture_name):
        from repro.evaluation import evaluate_candidates

        dataset = request.getfixturevalue(fixture_name)
        prepared = dataset.prepared
        input_report = evaluate_candidates(prepared.candidates, dataset.ground_truth)
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET, pruning="BLAST", training_size=50, seed=0
        )
        result = pipeline.run(
            prepared.blocks, prepared.candidates, dataset.ground_truth, stats=prepared.statistics()
        )
        output_report = evaluate_result(result, dataset.ground_truth)
        assert output_report.precision > 3 * input_report.precision
        assert output_report.recall > 0.75 * input_report.recall
