"""Tests for Token Blocking, the library's one blocking method."""

import pytest

from repro.blocking import NO_CLEANING, prepare_blocks
from repro.datamodel import EntityCollection, make_profile

from reference import blocks_of


def raw_blocks(first, second=None):
    """The blocks Token Blocking assembles, uncleaned, as the oracle's objects."""
    return blocks_of(prepare_blocks(first, second, NO_CLEANING).blocks)


@pytest.fixture
def product_collections():
    first = EntityCollection(
        [
            make_profile("a1", name="apple iphone x", category="smartphone"),
            make_profile("a2", name="samsung s20", category="smartphone"),
        ],
        name="first",
    )
    second = EntityCollection(
        [
            make_profile("b1", name="iphone 10 apple", kind="smartphone"),
            make_profile("b2", name="huawei mate"),
        ],
        name="second",
    )
    return first, second


class TestTokenBlocking:
    def test_paper_example_block_keys(self, paper_example_profiles):
        first, second, _ = paper_example_profiles
        blocks = raw_blocks(first, second)
        keys = {block.key for block in blocks}
        # the redundancy-positive blocks of Figure 1b
        assert {"apple", "iphone", "samsung", "20", "smartphone", "mate", "phone"} <= keys

    def test_paper_example_duplicates_covered(self, paper_example_profiles):
        first, second, truth = paper_example_profiles
        candidates = prepare_blocks(first, second, cleaning=NO_CLEANING).candidates
        assert truth.covered_by(candidates) == len(truth)

    def test_bilateral_blocks_only_shared_tokens(self, product_collections):
        first, second = product_collections
        blocks = raw_blocks(first, second)
        keys = {block.key for block in blocks}
        assert "apple" in keys and "iphone" in keys
        assert "s20" not in keys  # appears only in the first collection
        assert all(block.is_bilateral for block in blocks)

    def test_dirty_blocks(self, product_collections):
        first, _ = product_collections
        blocks = raw_blocks(first)
        keys = {block.key for block in blocks}
        assert "smartphone" in keys  # shared by both dirty entities
        assert all(not block.is_bilateral for block in blocks)

    def test_the_collection_is_labelled_token_blocking(self, product_collections):
        first, second = product_collections
        prepared = prepare_blocks(first, second, NO_CLEANING)
        assert prepared.raw_blocks.name == "token-blocking(first,second)"
        assert prepare_blocks(first).raw_blocks.name == "token-blocking(first)"
