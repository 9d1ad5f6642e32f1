"""Tests for the block co-occurrence statistics.

The expected values are hand-computed on the ``small_blocks`` fixture:

* block "alpha" = {0, 1} x {3}   (size 3, cardinality 2)
* block "beta"  = {0}    x {3, 4}(size 3, cardinality 2)
* block "gamma" = {1, 2} x {4, 5}(size 4, cardinality 4)
* block "delta" = {2}    x {5}   (size 2, cardinality 1)
"""

import numpy as np
import pytest

from repro.weights import BlockStatistics


class TestBlockStatistics:
    def test_global_counts(self, small_stats):
        assert small_stats.num_blocks == 4
        assert small_stats.total_cardinality == 9.0
        assert small_stats.block_sizes.tolist() == [3.0, 3.0, 4.0, 2.0]
        assert small_stats.block_cardinalities.tolist() == [2.0, 2.0, 4.0, 1.0]

    def test_entity_memberships(self, small_stats):
        assert small_stats.blocks_of(0) == frozenset({0, 1})
        assert small_stats.blocks_of(5) == frozenset({2, 3})
        assert small_stats.blocks_of(99) == frozenset()

    def test_blocks_per_entity(self, small_stats):
        assert small_stats.blocks_per_entity[0] == 2
        assert small_stats.blocks_per_entity[2] == 2
        assert small_stats.blocks_per_entity.sum() == 12

    def test_common_blocks(self, small_stats):
        assert small_stats.common_blocks(0, 3) == frozenset({0, 1})
        assert small_stats.common_blocks(1, 4) == frozenset({2})
        assert small_stats.common_blocks(0, 5) == frozenset()
        assert small_stats.common_block_count(0, 3) == 2

    def test_entity_cardinality(self, small_stats):
        # ||e_0|| = ||alpha|| + ||beta|| = 2 + 2
        assert small_stats.entity_cardinality[0] == 4.0
        # ||e_5|| = ||gamma|| + ||delta|| = 4 + 1
        assert small_stats.entity_cardinality[5] == 5.0

    def test_inverse_sums(self, small_stats):
        assert small_stats.entity_inv_cardinality[0] == pytest.approx(1.0)  # 1/2 + 1/2
        assert small_stats.entity_inv_size[0] == pytest.approx(2.0 / 3.0)  # 1/3 + 1/3
        assert small_stats.sum_inverse_cardinality(frozenset({0, 1})) == pytest.approx(1.0)
        assert small_stats.sum_inverse_size(frozenset({2, 3})) == pytest.approx(0.75)
        assert small_stats.sum_inverse_cardinality(frozenset()) == 0.0

    def test_local_candidate_counts(self, small_stats):
        lcp = small_stats.local_candidate_counts()
        assert lcp[0] == 2  # candidates of entity 0: {3, 4}
        assert lcp[1] == 3  # candidates of entity 1: {3, 4, 5}
        assert lcp[4] == 3  # candidates of entity 4: {0, 1, 2}
        assert lcp[5] == 2

    def test_lcp_is_cached(self, small_blocks):
        stats = BlockStatistics(small_blocks)
        first = stats.local_candidate_counts()
        second = stats.local_candidate_counts()
        assert first is second

    def test_describe(self, small_stats):
        summary = small_stats.describe()
        assert summary["blocks"] == 4
        assert summary["total_cardinality"] == 9.0
        assert summary["max_block_size"] == 4.0
        assert summary["avg_blocks_per_entity"] == pytest.approx(2.0)

    def test_dirty_blocks_lcp(self):
        from repro.datamodel import Block, BlockCollection, EntityIndexSpace

        space = EntityIndexSpace(4)
        blocks = BlockCollection([Block("k", [0, 1, 2]), Block("m", [2, 3])], space)
        stats = BlockStatistics(blocks)
        lcp = stats.local_candidate_counts()
        assert lcp.tolist() == [2.0, 2.0, 3.0, 1.0]


def loop_entity_aggregates(stats):
    """The per-entity aggregates as the loop oracle sums them (set order)."""
    nodes = range(stats.blocks.index_space.total)
    memberships = [stats.blocks_of(node) for node in nodes]
    return {
        "blocks_per_entity": [len(ids) for ids in memberships],
        "entity_cardinality": [
            float(stats.block_cardinalities[list(ids)].sum()) for ids in memberships
        ],
        "entity_inv_cardinality": [stats.sum_inverse_cardinality(ids) for ids in memberships],
        "entity_inv_size": [stats.sum_inverse_size(ids) for ids in memberships],
    }


class TestArrayNativeConstruction:
    """``__init__`` reads the CSR; the loop formulations stay the oracle."""

    @pytest.mark.parametrize("handoff", [True, False], ids=["prepared", "bare"])
    def test_entity_aggregates_match_the_loop_oracle(self, dblpacm_dataset, handoff):
        from repro.blocking import prepare_blocks

        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        stats = prepared.statistics() if handoff else BlockStatistics(prepared.blocks)
        for name, expected in loop_entity_aggregates(stats).items():
            np.testing.assert_allclose(
                getattr(stats, name), expected, rtol=1e-12, atol=0, err_msg=name
            )
        # integer-valued sums are exact in any order
        assert stats.blocks_per_entity.sum() == prepared.blocks.total_block_assignments()

    @pytest.mark.parametrize("fixture", ["dblpacm_dataset", "abtbuy_dataset"])
    def test_lcp_is_the_candidate_degree(self, request, fixture):
        from repro.blocking import prepare_blocks

        dataset = request.getfixturevalue(fixture)
        prepared = prepare_blocks(dataset.first, dataset.second)
        handed_over = prepared.statistics()
        bare = BlockStatistics(prepared.blocks)
        oracle = bare.local_candidate_counts()
        assert oracle.sum() == 2 * len(prepared.candidates)
        assert np.array_equal(handed_over.local_candidate_counts_sparse(), oracle)
        assert np.array_equal(bare.local_candidate_counts_sparse(), oracle)

    def test_bare_lcp_on_stranded_clean_clean_blocks(self):
        """A clean-clean block whose second side emptied compares intra-side."""
        from repro.datamodel import Block, BlockCollection, EntityIndexSpace

        blocks = BlockCollection(
            [
                Block("cross", [0, 1], [3, 4]),
                Block("stranded", [0, 1, 2]),
                Block("one-sided", [], [3, 4]),
                Block("lonely", [2]),
            ],
            EntityIndexSpace(3, 2),
        )
        stats = BlockStatistics(blocks)
        assert stats.local_candidate_counts().tolist() == [4.0, 4.0, 2.0, 2.0, 2.0]
        assert np.array_equal(
            stats.local_candidate_counts_sparse(), stats.local_candidate_counts()
        )

    def test_mismatched_handoffs_rejected(self, small_blocks, small_candidates):
        from repro.datamodel import CandidateSet, EntityIndexSpace

        stats = BlockStatistics(small_blocks, candidates=small_candidates)
        assert stats.local_candidate_counts_sparse().tolist() == [2, 3, 2, 2, 3, 2]
        foreign = CandidateSet.from_pairs([(0, 7)], EntityIndexSpace(4, 4))
        with pytest.raises(ValueError, match="candidate set does not match"):
            BlockStatistics(small_blocks, candidates=foreign)
