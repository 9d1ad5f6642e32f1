"""Tests for Block Purging, Block Filtering and candidate extraction."""

import pytest

from reference import blocks_of, pair_tuples, reference_candidates
from repro.blocking import NO_CLEANING, BlockCleaning, prepare_blocks
from repro.datamodel import EntityCollection, make_profile
from repro.evaluation import evaluate_candidates


@pytest.fixture
def skewed_collections():
    """Six profiles a side whose Token Blocking holds one huge (stop-word-like)
    block and small ones: ``stopword`` (all 12 entities), ``rareone`` (0 and
    6), ``raretwo`` (1 and 7) and ``mid`` (2, 3, 8 and 9)."""
    texts = ["rareone", "raretwo", "mid", "mid", "", ""]

    def side(name):
        return EntityCollection(
            [make_profile(f"{name}{k}", text=f"stopword {text}") for k, text in enumerate(texts)],
            name=name,
        )

    return side("a"), side("b")


def _prepare(collections, purging_fraction=None, filtering_ratio=None):
    return prepare_blocks(
        *collections, cleaning=BlockCleaning(purging_fraction, filtering_ratio)
    )


def _keys(blocks):
    return list(blocks.keys)


class TestBlockPurging:
    def test_oversized_block_removed(self, skewed_collections):
        prepared = _prepare(skewed_collections, purging_fraction=0.5)
        assert _keys(prepared.raw_blocks) == ["mid", "rareone", "raretwo", "stopword"]
        assert _keys(prepared.purged_blocks) == ["mid", "rareone", "raretwo"]
        assert _keys(prepared.blocks) == _keys(prepared.purged_blocks)

    def test_threshold_one_keeps_everything(self, skewed_collections):
        prepared = _prepare(skewed_collections, purging_fraction=1.0)
        assert _keys(prepared.purged_blocks) == _keys(prepared.raw_blocks)

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_invalid_fraction(self, skewed_collections, fraction):
        with pytest.raises(ValueError, match="purging_fraction"):
            _prepare(skewed_collections, purging_fraction=fraction)


class TestBlockFiltering:
    def test_entities_keep_smallest_blocks(self, skewed_collections):
        prepared = _prepare(skewed_collections, filtering_ratio=0.5)
        blocks = {block.key: block for block in blocks_of(prepared.blocks)}
        # the small distinctive blocks survive; the huge block loses members
        assert "rareone" in blocks and "raretwo" in blocks
        assert "stopword" not in blocks or blocks["stopword"].size() < 12

    def test_ratio_one_is_identity_on_memberships(self, skewed_collections):
        prepared = _prepare(skewed_collections, filtering_ratio=1.0)
        assert prepared.blocks.nodes.size == prepared.purged_blocks.nodes.size
        assert _keys(prepared.blocks) == _keys(prepared.purged_blocks)

    def test_every_entity_keeps_at_least_one_block(self, skewed_collections):
        prepared = _prepare(skewed_collections, filtering_ratio=0.2)
        kept = set(prepared.blocks.nodes.tolist())
        # every entity of the twelve was in a block, and keeps one: the four
        # holding ``stopword`` alone keep it, with one another
        assert kept == set(range(12))

    @pytest.mark.parametrize("ratio", [0.0, -0.2, 1.2])
    def test_invalid_ratio(self, skewed_collections, ratio):
        with pytest.raises(ValueError, match="filtering_ratio"):
            _prepare(skewed_collections, filtering_ratio=ratio)

    def test_reduces_comparisons(self, skewed_collections):
        prepared = _prepare(skewed_collections, filtering_ratio=0.5)
        filtered = prepared.blocks.block_cardinalities().sum()
        assert filtered < prepared.raw_blocks.block_cardinalities().sum()


class TestCandidateExtraction:
    def test_candidates_are_the_blocks_comparisons(self, skewed_collections):
        for cleaning in (NO_CLEANING, BlockCleaning(0.5, 0.5)):
            prepared = prepare_blocks(*skewed_collections, cleaning=cleaning)
            assert pair_tuples(prepared.candidates) == pair_tuples(
                reference_candidates(prepared.blocks)
            )

    def test_prepare_blocks_pipeline(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        assert len(prepared.raw_blocks) >= len(prepared.purged_blocks) >= 0
        assert len(prepared.candidates) > 0
        # purging + filtering must not destroy recall on the clean dataset
        report = evaluate_candidates(prepared.candidates, dblpacm_dataset.ground_truth)
        assert report.recall > 0.95

    def test_prepare_blocks_cleaning(self, dblpacm_dataset):
        without_cleaning = prepare_blocks(
            dblpacm_dataset.first, dblpacm_dataset.second, cleaning=NO_CLEANING
        )
        with_cleaning = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        assert len(with_cleaning.candidates) <= len(without_cleaning.candidates)

    def test_prepare_blocks_dirty(self, prepared_dirty):
        assert len(prepared_dirty.prepared.candidates) > 0
        report = evaluate_candidates(prepared_dirty.prepared.candidates, prepared_dirty.ground_truth)
        assert report.recall > 0.8
