"""Tests for blocks and block collections."""

from repro.datamodel import (
    Block,
    BlockCollection,
    EntityIndexSpace,
    build_bilateral_blocks,
    build_unilateral_blocks,
)


class TestBlock:
    def test_bilateral_cardinality_and_pairs(self):
        block = Block("key", [0, 1], [5, 6, 7])
        assert block.is_bilateral
        assert block.size() == 5
        assert block.cardinality() == 6
        assert set(block.pairs()) == {
            (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7),
        }

    def test_unilateral_cardinality_and_pairs(self):
        block = Block("key", [2, 0, 1])
        assert not block.is_bilateral
        assert block.cardinality() == 3
        assert set(block.pairs()) == {(0, 2), (0, 1), (1, 2)}

    def test_singleton_block_spawns_no_pair(self):
        block = Block("key", [3])
        assert block.cardinality() == 0
        assert list(block.pairs()) == []

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

    def test_entity_block_index(self, small_blocks):
        index = small_blocks.entity_block_index()
        assert index[0] == [0, 1]  # entity 0 is in blocks alpha and beta
        assert index[5] == [2, 3]

    def test_without_empty_blocks(self):
        space = EntityIndexSpace(3)
        blocks = BlockCollection(
            [Block("a", [0, 1]), Block("b", [2])], space
        )
        cleaned = blocks.without_empty_blocks()
        assert len(cleaned) == 1
        assert cleaned[0].key == "a"

    def test_block_sizes_and_cardinalities(self, small_blocks):
        assert small_blocks.block_sizes() == [3, 3, 4, 2]
        assert small_blocks.block_cardinalities() == [2, 2, 4, 1]


class TestBuilders:
    def test_build_bilateral_skips_single_source_keys(self):
        space = EntityIndexSpace(2, 2)
        blocks = build_bilateral_blocks(
            {"shared": [0], "only_first": [1]},
            {"shared": [2], "only_second": [3]},
            space,
        )
        assert len(blocks) == 1
        assert blocks[0].key == "shared"

    def test_build_unilateral_drops_singletons(self):
        space = EntityIndexSpace(4)
        blocks = build_unilateral_blocks(
            {"a": [0, 1, 1], "b": [2]}, space
        )
        assert len(blocks) == 1
        assert blocks[0].entities_first == [0, 1]  # deduplicated and sorted

    def test_builders_sorted_by_key(self):
        space = EntityIndexSpace(3, 3)
        blocks = build_bilateral_blocks(
            {"z": [0], "a": [1]}, {"z": [3], "a": [4]}, space
        )
        assert [b.key for b in blocks] == ["a", "z"]
