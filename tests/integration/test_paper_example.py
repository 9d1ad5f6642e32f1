"""Integration test on the paper's running example (Figures 1-4).

The seven smartphone profiles of Figure 1 are blocked with Token Blocking,
and the resulting blocks, candidate pairs and meta-blocking behaviour are
checked against the paper's narrative: all three duplicate pairs co-occur in
at least one block, and meta-blocking removes superfluous comparisons without
losing the matches.
"""

import pytest

from repro.blocking import NO_CLEANING, prepare_blocks
from repro.core import GeneralizedSupervisedMetaBlocking
from repro.evaluation import evaluate_candidates, evaluate_retained_mask
from repro.core.pruning import get_pruning_algorithm
from repro.weights import CommonBlocksScheme

from reference import candidate_set, pair_positions


@pytest.fixture(scope="module")
def example(paper_example_profiles):
    """Figure 1b: the raw Token Blocking blocks, and their distinct comparisons."""
    first, second, _ = paper_example_profiles
    return prepare_blocks(first, second, cleaning=NO_CLEANING)


@pytest.fixture(scope="module")
def example_blocks(example):
    return example.blocks


@pytest.fixture(scope="module")
def candidates(example):
    return example.candidates


class TestPaperExample:
    def test_duplicates_share_blocks(self, example, paper_example_profiles):
        _, _, truth = paper_example_profiles
        duplicates = candidate_set(truth.pairs(), example.blocks.index_space)
        shared = example.statistics().pair_cooccurrence(duplicates).common
        assert len(shared) == 3 and shared.min() >= 1

    def test_blocking_achieves_perfect_recall(self, candidates, paper_example_profiles):
        _, _, truth = paper_example_profiles
        report = evaluate_candidates(candidates, truth)
        assert report.recall == 1.0
        assert report.precision < 1.0  # superfluous comparisons exist

    def test_redundant_comparisons_removed(self, example_blocks, candidates):
        assert len(candidates) < example_blocks.block_cardinalities().sum()

    def test_common_blocks_weighting_matches_figure2(
        self, example, candidates, paper_example_profiles
    ):
        """In Figure 2a the edge e1-e3 has weight 3 (apple, iphone, smartphone)."""
        first, second, _ = paper_example_profiles
        weights = CommonBlocksScheme().compute(candidates, example.statistics())[:, 0]
        position = pair_positions(candidates)[
            (first.index_of("e1"), len(first) + second.index_of("e3"))
        ]
        assert weights[position] == 3.0

    def test_unsupervised_meta_blocking_keeps_matches(
        self, example, candidates, paper_example_profiles
    ):
        """Example 2: WNP on the CBS-weighted blocking graph of Figure 2a."""
        _, _, truth = paper_example_profiles
        weights = CommonBlocksScheme().compute(candidates, example.statistics())[:, 0]
        mask = get_pruning_algorithm("WNP").retain(weights, candidates)
        labels = truth.labels_for(candidates)
        report = evaluate_retained_mask(mask, labels, len(truth))
        assert report.recall == 1.0
        assert mask.sum() < len(candidates)  # some superfluous pairs pruned

    def test_supervised_pipeline_on_tiny_example(
        self, example, example_blocks, candidates, paper_example_profiles
    ):
        """The supervised pipeline degrades gracefully on a 3-duplicate toy input."""
        _, _, truth = paper_example_profiles
        pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=("CF-IBF", "RACCB", "JS"),
            pruning="BLAST",
            training_size=6,
            seed=0,
        )
        result = pipeline.run(example_blocks, candidates, truth, example.statistics())
        report = evaluate_retained_mask(result.retained_mask, result.labels, len(truth))
        assert report.recall >= 2 / 3
