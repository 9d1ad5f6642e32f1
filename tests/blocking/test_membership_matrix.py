"""Tests for the membership matrix, the library's one block representation.

A hand-built block is the oracle's (``tests/reference.py``): its paper
``|b|`` / ``||b||`` and the comparisons it spawns.  The matrix holds the
same blocks as flat memberships (:func:`reference.matrix_of`) and must count
the same: ``len()`` blocks, ``block_sizes()``, ``block_cardinalities()`` — a
clean-clean block Block Filtering stranded with first-side members only
compares intra-side — and the pruning totals.  What the block builders state
— bilateral blocks for shared signatures only, no singleton, deduplicated
sorted members, sorted keys — is read off ``prepare_blocks``' raw blocks.
"""

from reference import (
    Block,
    BlockCollection,
    block_comparisons,
    blocks_of,
    matrix_of,
    reference_block_sets,
)
from repro.blocking import NO_CLEANING, prepare_blocks
from repro.core.pruning import BlockTotals
from repro.datamodel import EntityCollection, EntityIndexSpace, make_profile


def _collection(name, texts):
    return EntityCollection(
        [make_profile(f"{name}{k}", text=text) for k, text in enumerate(texts)], name=name
    )


def _raw_blocks(*collections):
    return blocks_of(prepare_blocks(*collections, cleaning=NO_CLEANING).raw_blocks)


def _matrix(space, *blocks):
    return matrix_of(BlockCollection(list(blocks), space))


class TestBlockCounts:
    def test_bilateral_size_cardinality_and_pairs(self):
        block = Block("key", [0, 1], [5, 6, 7])
        matrix = _matrix(EntityIndexSpace(5, 3), block)
        assert len(matrix) == 1
        assert matrix.block_sizes().tolist() == [block.size()] == [5]
        assert matrix.block_cardinalities().tolist() == [block.cardinality()] == [6]
        assert block_comparisons(block) == {
            (0, 5), (0, 6), (0, 7), (1, 5), (1, 6), (1, 7),
        }

    def test_unilateral_size_cardinality_and_pairs(self):
        block = Block("key", [2, 0, 1])
        matrix = _matrix(EntityIndexSpace(3), block)
        assert matrix.block_sizes().tolist() == [3]
        assert matrix.block_cardinalities().tolist() == [block.cardinality()] == [3]
        assert block_comparisons(block) == {(0, 2), (0, 1), (1, 2)}

    def test_singleton_block_spawns_no_pair(self):
        block = Block("key", [3])
        matrix = _matrix(EntityIndexSpace(4), block)
        assert matrix.block_cardinalities().tolist() == [block.cardinality()] == [0]
        assert block_comparisons(block) == set()
        assert BlockTotals.of(matrix) == BlockTotals(0, 4)

    def test_stranded_and_one_sided_clean_clean_blocks(self):
        """A clean-clean block left with first-side members only compares
        them with one another; one with second-side members only compares
        nothing."""
        stranded, one_sided = Block("stranded", [0, 1, 2]), Block("one-sided", [], [3, 4])
        assert not stranded.is_bilateral and one_sided.is_bilateral
        matrix = _matrix(EntityIndexSpace(3, 2), stranded, one_sided)
        assert len(matrix) == 2
        assert matrix.block_sizes().tolist() == [3, 2]
        assert matrix.block_cardinalities().tolist() == [3, 0]
        assert [stranded.cardinality(), one_sided.cardinality()] == [3, 0]
        assert BlockTotals.of(matrix) == BlockTotals(3, 5)

    def test_members_split_by_side_round_trip(self):
        blocks = BlockCollection(
            [Block("a", [0, 1], [4]), Block("b", [], [3]), Block("c", [2])],
            EntityIndexSpace(3, 2),
            name="hand-built",
        )
        assert blocks_of(matrix_of(blocks)) == blocks
        assert blocks[0].all_entities() == [0, 1, 4]


class TestCollectionCounts:
    def test_length_sizes_cardinalities_and_totals(self, small_blocks):
        matrix = matrix_of(small_blocks)
        assert len(matrix) == matrix.num_blocks == 4
        assert matrix.block_sizes().tolist() == [3, 3, 4, 2]
        assert matrix.block_cardinalities().tolist() == [2, 2, 4, 1]
        assert BlockTotals.of(matrix) == BlockTotals(12, 6)

    def test_entity_block_sets(self, small_blocks):
        of_node = reference_block_sets(small_blocks).of_node
        assert of_node[0] == {0, 1}  # entity 0 is in blocks alpha and beta
        assert of_node[5] == {2, 3}

    def test_an_empty_collection(self):
        matrix = _matrix(EntityIndexSpace(2))
        assert len(matrix) == 0
        assert matrix.block_sizes().tolist() == matrix.block_cardinalities().tolist() == []
        assert BlockTotals.of(matrix) == BlockTotals(0, 2)

    def test_equality_is_identity(self, small_blocks):
        """A matrix is a dataclass of arrays: ``==`` compares identities, so
        tests compare matrices through ``blocks_of``."""
        one, two = matrix_of(small_blocks), matrix_of(small_blocks)
        assert one == one and one != two
        assert blocks_of(one) == blocks_of(two)


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
