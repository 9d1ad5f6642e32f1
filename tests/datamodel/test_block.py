"""Tests for blocks and block collections.

The comparisons a block spawns and the ``B_i`` index are the oracle's
(``tests/reference.py``); what the block builders stated — bilateral blocks
for shared signatures only, no singleton, deduplicated sorted members, sorted
keys — is read off ``prepare_blocks``' raw blocks.
"""

from reference import block_comparisons, reference_block_sets
from repro.blocking import NO_CLEANING, prepare_blocks
from repro.datamodel import Block, EntityCollection, make_profile


def _collection(name, texts):
    return EntityCollection(
        [make_profile(f"{name}{k}", text=text) for k, text in enumerate(texts)], name=name
    )


def _raw_blocks(*collections):
    return prepare_blocks(*collections, cleaning=NO_CLEANING).raw_blocks


class TestBlock:
    def test_bilateral_cardinality_and_pairs(self):
        block = Block("key", [0, 1], [5, 6, 7])
        assert block.is_bilateral
        assert block.size() == 5
        assert block.cardinality() == 6
        assert block_comparisons(block) == {
            (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7),
        }

    def test_unilateral_cardinality_and_pairs(self):
        block = Block("key", [2, 0, 1])
        assert not block.is_bilateral
        assert block.cardinality() == 3
        assert block_comparisons(block) == {(0, 2), (0, 1), (1, 2)}

    def test_singleton_block_spawns_no_pair(self):
        block = Block("key", [3])
        assert block.cardinality() == 0
        assert block_comparisons(block) == set()

    def test_all_entities(self):
        block = Block("key", [0, 1], [4])
        assert block.all_entities() == [0, 1, 4]


class TestBlockCollection:
    def test_aggregates(self, small_blocks):
        assert len(small_blocks) == 4
        assert small_blocks.total_comparisons() == sum(
            b.cardinality() for b in small_blocks
        )
        assert small_blocks.total_block_assignments() == sum(
            b.size() for b in small_blocks
        )

    def test_entity_block_sets(self, small_blocks):
        of_node = reference_block_sets(small_blocks).of_node
        assert of_node[0] == {0, 1}  # entity 0 is in blocks alpha and beta
        assert of_node[5] == {2, 3}

    def test_block_sizes_and_cardinalities(self, small_blocks):
        assert small_blocks.block_sizes() == [3, 3, 4, 2]
        assert small_blocks.block_cardinalities() == [2, 2, 4, 1]


class TestAssembly:
    def test_bilateral_blocks_only_for_shared_signatures(self):
        blocks = _raw_blocks(
            _collection("a", ["shared", "onlyfirst"]), _collection("b", ["shared", "onlysecond"])
        )
        assert [(b.key, b.entities_first, b.entities_second) for b in blocks] == [
            ("shared", [0], [2])
        ]

    def test_unilateral_drops_singletons_and_repeats(self):
        blocks = _raw_blocks(_collection("d", ["a a", "a", "b", ""]))
        assert [(b.key, b.entities_first) for b in blocks] == [("a", [0, 1])]

    def test_blocks_sorted_by_key(self):
        blocks = _raw_blocks(_collection("a", ["z", "a"]), _collection("b", ["z", "a"]))
        assert [b.key for b in blocks] == ["a", "z"]
