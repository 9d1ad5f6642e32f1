"""Tests for the blocking methods (Token, Q-Grams, Suffix-Arrays, Standard)."""

import pytest

from repro.blocking import (
    NO_CLEANING,
    QGramsBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
    TokenBlocking,
    prepare_blocks,
)
from repro.datamodel import EntityCollection, make_profile

from reference import blocks_of


def raw_blocks(method, first, second=None):
    """The blocks ``method`` assembles, uncleaned, as the oracle's objects."""
    return blocks_of(prepare_blocks(first, second, method, NO_CLEANING).blocks)


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
        blocks = raw_blocks(TokenBlocking(), first, second)
        keys = {block.key for block in blocks}
        # the redundancy-positive blocks of Figure 1b
        assert {"apple", "iphone", "samsung", "20", "smartphone", "mate", "phone"} <= keys

    def test_paper_example_duplicates_covered(self, paper_example_profiles):
        first, second, truth = paper_example_profiles
        candidates = prepare_blocks(first, second, cleaning=NO_CLEANING).candidates
        assert truth.covered_by(candidates) == len(truth)

    def test_bilateral_blocks_only_shared_tokens(self, product_collections):
        first, second = product_collections
        blocks = raw_blocks(TokenBlocking(), first, second)
        keys = {block.key for block in blocks}
        assert "apple" in keys and "iphone" in keys
        assert "s20" not in keys  # appears only in the first collection
        assert all(block.is_bilateral for block in blocks)

    def test_dirty_blocks(self, product_collections):
        first, _ = product_collections
        blocks = raw_blocks(TokenBlocking(), first)
        keys = {block.key for block in blocks}
        assert "smartphone" in keys  # shared by both dirty entities
        assert all(not block.is_bilateral for block in blocks)

    def test_min_token_length(self, product_collections):
        first, second = product_collections
        blocks = raw_blocks(TokenBlocking(min_token_length=3), first, second)
        assert all(len(block.key) >= 3 for block in blocks)

    def test_invalid_min_length(self):
        with pytest.raises(ValueError):
            TokenBlocking(min_token_length=0)


class TestQGramsBlocking:
    def test_qgram_signatures(self):
        method = QGramsBlocking(q=3)
        profile = make_profile("x", name="abcd")
        assert method.signatures_of(profile) == {"abc", "bcd"}

    def test_more_blocks_than_token_blocking(self, product_collections):
        first, second = product_collections
        token_blocks = raw_blocks(TokenBlocking(), first, second)
        qgram_blocks = raw_blocks(QGramsBlocking(q=3), first, second)
        assert len(qgram_blocks) >= len(token_blocks)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramsBlocking(q=0)


class TestSuffixArraysBlocking:
    def test_suffix_signatures(self):
        method = SuffixArraysBlocking(min_suffix_length=3, max_block_size=None)
        profile = make_profile("x", name="abcde")
        assert method.signatures_of(profile) == {"abcde", "bcde", "cde"}

    def test_oversized_suffix_blocks_dropped(self, product_collections):
        first, second = product_collections
        blocks = raw_blocks(SuffixArraysBlocking(min_suffix_length=3, max_block_size=2), first, second)
        assert all(block.size() <= 2 for block in blocks)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SuffixArraysBlocking(min_suffix_length=0)
        with pytest.raises(ValueError):
            SuffixArraysBlocking(max_block_size=1)


class TestStandardBlocking:
    def test_whole_value_keys(self, product_collections):
        first, second = product_collections
        method = StandardBlocking(["category"])
        signatures = method.signatures_of(first[0])
        assert signatures == {"category:smartphone"}

    def test_tokenized_keys(self):
        method = StandardBlocking(["name"], tokenize=True)
        signatures = method.signatures_of(make_profile("x", name="Apple iPhone"))
        assert signatures == {"name:apple", "name:iphone"}

    def test_missing_attribute_produces_no_signature(self):
        method = StandardBlocking(["missing"])
        assert method.signatures_of(make_profile("x", name="foo")) == set()

    def test_requires_key_attributes(self):
        with pytest.raises(ValueError):
            StandardBlocking([])
