"""Tests for Block Purging, Block Filtering and candidate extraction."""

import pytest

from reference import pair_tuples
from repro.blocking import (
    TokenBlocking,
    extract_candidates,
    filter_blocks,
    prepare_blocks,
    purge_by_comparison_cardinality,
    purge_oversized_blocks,
)
from repro.datamodel import Block, BlockCollection, CandidateSet, EntityIndexSpace
from repro.evaluation import evaluate_candidates


@pytest.fixture
def skewed_blocks():
    """A collection with one huge (stop-word-like) block and small blocks."""
    space = EntityIndexSpace(6, 6)
    return BlockCollection(
        [
            Block("stopword", [0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11]),
            Block("rare-1", [0], [6]),
            Block("rare-2", [1], [7]),
            Block("mid", [2, 3], [8, 9]),
        ],
        space,
    )


class TestBlockPurging:
    def test_oversized_block_removed(self, skewed_blocks):
        purged = purge_oversized_blocks(skewed_blocks, max_entity_fraction=0.5)
        assert all(block.key != "stopword" for block in purged)
        assert len(purged) == 3

    def test_threshold_one_keeps_everything(self, skewed_blocks):
        purged = purge_oversized_blocks(skewed_blocks, max_entity_fraction=1.0)
        assert len(purged) == len(skewed_blocks)

    def test_invalid_fraction(self, skewed_blocks):
        with pytest.raises(ValueError):
            purge_oversized_blocks(skewed_blocks, max_entity_fraction=0.0)

    def test_cardinality_purging_drops_largest(self, skewed_blocks):
        purged = purge_by_comparison_cardinality(skewed_blocks)
        assert len(purged) < len(skewed_blocks)
        assert all(block.key != "stopword" for block in purged)

    def test_cardinality_purging_empty_collection(self):
        space = EntityIndexSpace(2)
        blocks = BlockCollection([], space)
        assert len(purge_by_comparison_cardinality(blocks)) == 0


class TestBlockFiltering:
    def test_entities_keep_smallest_blocks(self, skewed_blocks):
        filtered = filter_blocks(skewed_blocks, ratio=0.5)
        keys = {block.key for block in filtered}
        # the small distinctive blocks survive; the huge block loses members
        assert "rare-1" in keys and "rare-2" in keys
        stopword_blocks = [block for block in filtered if block.key == "stopword"]
        if stopword_blocks:
            assert stopword_blocks[0].size() < 12

    def test_ratio_one_is_identity_on_memberships(self, skewed_blocks):
        filtered = filter_blocks(skewed_blocks, ratio=1.0)
        assert sum(block.size() for block in filtered) == sum(
            block.size() for block in skewed_blocks
        )

    def test_every_entity_keeps_at_least_one_block(self, skewed_blocks):
        filtered = filter_blocks(skewed_blocks, ratio=0.2)
        index = filtered.entity_block_index()
        original_index = skewed_blocks.entity_block_index()
        # entities that had any block before must still have one (unless their
        # only surviving block lost its counterpart side entirely)
        assert set(original_index) >= set(index)
        assert len(index) >= len(original_index) - 2

    def test_invalid_ratio(self, skewed_blocks):
        with pytest.raises(ValueError):
            filter_blocks(skewed_blocks, ratio=0.0)

    def test_reduces_comparisons(self, skewed_blocks):
        filtered = filter_blocks(skewed_blocks, ratio=0.5)
        assert filtered.total_comparisons() <= skewed_blocks.total_comparisons()


class TestCandidateExtraction:
    def test_extract_candidates_matches_from_blocks(self, skewed_blocks):
        assert (
            pair_tuples(extract_candidates(skewed_blocks))
            == pair_tuples(CandidateSet.from_blocks(skewed_blocks))
        )

    def test_prepare_blocks_pipeline(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        assert len(prepared.raw_blocks) >= len(prepared.purged_blocks) >= 0
        assert len(prepared.candidates) > 0
        # purging + filtering must not destroy recall on the clean dataset
        report = evaluate_candidates(prepared.candidates, dblpacm_dataset.ground_truth)
        assert report.recall > 0.95

    def test_prepare_blocks_toggles(self, dblpacm_dataset):
        without_cleaning = prepare_blocks(
            dblpacm_dataset.first,
            dblpacm_dataset.second,
            apply_purging=False,
            apply_filtering=False,
        )
        with_cleaning = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        assert len(with_cleaning.candidates) <= len(without_cleaning.candidates)

    def test_prepare_blocks_custom_method(self, dblpacm_dataset):
        prepared = prepare_blocks(
            dblpacm_dataset.first,
            dblpacm_dataset.second,
            blocking=TokenBlocking(min_token_length=2),
        )
        assert len(prepared.candidates) > 0

    def test_prepare_blocks_dirty(self, prepared_dirty):
        assert len(prepared_dirty.prepared.candidates) > 0
        report = evaluate_candidates(prepared_dirty.prepared.candidates, prepared_dirty.ground_truth)
        assert report.recall > 0.8
