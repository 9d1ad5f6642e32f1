"""Tests for the block co-occurrence statistics.

The expected values are hand-computed on the ``small_blocks`` fixture:

* block "alpha" = {0, 1} x {3}   (size 3, cardinality 2)
* block "beta"  = {0}    x {3, 4}(size 3, cardinality 2)
* block "gamma" = {1, 2} x {4, 5}(size 4, cardinality 4)
* block "delta" = {2}    x {5}   (size 2, cardinality 1)
"""

import numpy as np
import pytest

from reference import (
    Block,
    BlockCollection,
    block_statistics,
    blocks_of,
    candidate_set,
    matrix_of,
    reference_block_sets,
    reference_lcp,
)
from repro.datamodel import EntityIndexSpace


class TestBlockStatistics:
    def test_global_counts(self, small_stats):
        assert small_stats.num_blocks == 4
        assert small_stats.total_cardinality == 9.0
        assert small_stats.inverse_block_sizes.tolist() == [1 / 3, 1 / 3, 1 / 4, 1 / 2]
        assert small_stats.inverse_block_cardinalities.tolist() == [1 / 2, 1 / 2, 1 / 4, 1.0]

    def test_entity_memberships(self, small_stats):
        csr = small_stats.csr()
        rows = [csr.indices[begin:end].tolist() for begin, end in zip(csr.indptr, csr.indptr[1:])]
        assert rows == [[0, 1], [0, 2], [2, 3], [0, 1], [1, 2], [2, 3]]

    def test_blocks_per_entity(self, small_stats):
        assert small_stats.blocks_per_entity[0] == 2
        assert small_stats.blocks_per_entity[2] == 2
        assert small_stats.blocks_per_entity.sum() == 12

    def test_common_blocks(self, small_blocks, small_stats):
        # (0, 3) shares alpha and beta, (0, 5) nothing, (1, 4) gamma, and
        # (2, 5) gamma and delta
        pairs = [(0, 3), (0, 5), (1, 4), (2, 5)]
        candidates = candidate_set(pairs, small_blocks.index_space)
        shared = small_stats.pair_cooccurrence(candidates)
        assert list(zip(candidates.left.tolist(), candidates.right.tolist())) == pairs
        assert shared.common.tolist() == [2.0, 0.0, 1.0, 2.0]
        np.testing.assert_allclose(shared.sum_inverse_cardinality, [1.0, 0.0, 0.25, 1.25])
        np.testing.assert_allclose(shared.sum_inverse_size, [2 / 3, 0.0, 0.25, 0.75])

    def test_entity_cardinality(self, small_stats):
        # ||e_0|| = ||alpha|| + ||beta|| = 2 + 2
        assert small_stats.entity_cardinality[0] == 4.0
        # ||e_5|| = ||gamma|| + ||delta|| = 4 + 1
        assert small_stats.entity_cardinality[5] == 5.0

    def test_inverse_sums(self, small_stats):
        assert small_stats.entity_inv_cardinality[0] == pytest.approx(1.0)  # 1/2 + 1/2
        assert small_stats.entity_inv_size[0] == pytest.approx(2.0 / 3.0)  # 1/3 + 1/3
        # ||e_5||^-1 = 1/||gamma|| + 1/||delta||, |e_5|^-1 = 1/|gamma| + 1/|delta|
        assert small_stats.entity_inv_cardinality[5] == pytest.approx(1.25)
        assert small_stats.entity_inv_size[5] == pytest.approx(0.75)

    def test_local_candidate_counts(self, small_stats):
        lcp = small_stats.local_candidate_counts_sparse()
        assert lcp[0] == 2  # candidates of entity 0: {3, 4}
        assert lcp[1] == 3  # candidates of entity 1: {3, 4, 5}
        assert lcp[4] == 3  # candidates of entity 4: {0, 1, 2}
        assert lcp[5] == 2

    def test_lcp_is_cached(self, small_blocks):
        stats = block_statistics(small_blocks)
        first = stats.local_candidate_counts_sparse()
        second = stats.local_candidate_counts_sparse()
        assert first is second

    def test_dirty_blocks_lcp(self):
        space = EntityIndexSpace(4)
        blocks = BlockCollection([Block("k", [0, 1, 2]), Block("m", [2, 3])], space)
        stats = block_statistics(blocks)
        lcp = stats.local_candidate_counts_sparse()
        assert lcp.tolist() == [2.0, 2.0, 3.0, 1.0]


def loop_entity_aggregates(blocks):
    """The per-entity aggregates summed over the blocks' member lists (set order)."""
    sets = reference_block_sets(blocks)
    return {
        "blocks_per_entity": [len(ids) for ids in sets.of_node],
        "entity_cardinality": [sets.entity_cardinality(ids) for ids in sets.of_node],
        "entity_inv_cardinality": [sets.inverse_cardinality(ids) for ids in sets.of_node],
        "entity_inv_size": [sets.inverse_size(ids) for ids in sets.of_node],
    }


class TestArrayNativeConstruction:
    """``__init__`` reads memberships grouped by block; the sums over the
    blocks' member lists (``tests/reference.py``) stay the oracle."""

    @pytest.mark.parametrize("handoff", [True, False], ids=["prepared", "bare"])
    def test_entity_aggregates_match_the_loop_oracle(self, dblpacm_dataset, handoff):
        from repro.blocking import prepare_blocks

        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        # bare: the matrix rebuilt from the oracle's blocks, no CSR handed over
        objects = blocks_of(prepared.blocks)
        stats = prepared.statistics() if handoff else block_statistics(objects, prepared.candidates)
        for name, expected in loop_entity_aggregates(prepared.blocks).items():
            np.testing.assert_allclose(
                getattr(stats, name), expected, rtol=1e-12, atol=0, err_msg=name
            )
        # integer-valued sums are exact in any order
        assert stats.blocks_per_entity.sum() == prepared.blocks.nodes.size

    @pytest.mark.parametrize("fixture", ["dblpacm_dataset", "abtbuy_dataset"])
    def test_lcp_is_the_candidate_degree(self, request, fixture):
        from repro.blocking import prepare_blocks

        dataset = request.getfixturevalue(fixture)
        prepared = prepare_blocks(dataset.first, dataset.second)
        handed_over = prepared.statistics()
        oracle = reference_lcp(prepared.blocks)
        assert oracle.sum() == 2 * len(prepared.candidates)
        assert np.array_equal(handed_over.local_candidate_counts_sparse(), oracle)

    def test_bare_lcp_on_stranded_clean_clean_blocks(self):
        """A clean-clean block whose second side emptied compares intra-side:
        the degrees in its comparisons are the paper's LCP."""
        blocks = BlockCollection(
            [
                Block("cross", [0, 1], [3, 4]),
                Block("stranded", [0, 1, 2]),
                Block("one-sided", [], [3, 4]),
                Block("lonely", [2]),
            ],
            EntityIndexSpace(3, 2),
        )
        assert reference_lcp(blocks).tolist() == [4.0, 4.0, 2.0, 2.0, 2.0]
        assert block_statistics(blocks).local_candidate_counts_sparse().tolist() == [
            4.0, 4.0, 2.0, 2.0, 2.0
        ]

    def test_mismatched_handoffs_rejected(self, small_blocks, small_candidates):
        from repro.blocking import PreparedBlocks

        stats = block_statistics(small_blocks, candidates=small_candidates)
        assert stats.local_candidate_counts_sparse().tolist() == [2, 3, 2, 2, 3, 2]
        three = BlockCollection(small_blocks.blocks[:3], small_blocks.index_space)
        wrong = block_statistics(three).csr()
        matrix = matrix_of(small_blocks)
        mismatched = PreparedBlocks(matrix, matrix, matrix, small_candidates, csr=wrong)
        with pytest.raises(ValueError, match="precomputed CSR does not match"):
            mismatched.statistics()
