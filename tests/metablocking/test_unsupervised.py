"""Tests for the unsupervised meta-blocking baselines."""

import numpy as np
import pytest

from repro.evaluation import evaluate_candidates, evaluate_retained_mask
from repro.metablocking import (
    UnsupervisedBLAST,
    UnsupervisedCEP,
    UnsupervisedCNP,
    UnsupervisedRCNP,
    UnsupervisedRWNP,
    UnsupervisedWEP,
    UnsupervisedWNP,
    build_blocking_graph,
)
from repro.weights import BlockStatistics, get_scheme


class TestBlockingGraph:
    def test_graph_edges_are_candidate_pairs(self, small_blocks, small_candidates):
        graph = build_blocking_graph(small_blocks, scheme="CBS")
        assert graph.edge_count == len(small_candidates)
        assert graph.scheme_name == "CBS"
        assert graph.weights.shape == (len(small_candidates),)

    def test_cbs_weights_match_common_blocks(self, small_blocks, small_stats):
        graph = build_blocking_graph(small_blocks, scheme="CBS")
        for position, pair in enumerate(graph.candidates):
            assert graph.weights[position] == small_stats.common_block_count(
                pair.left, pair.right
            )

    def test_entity_level_scheme_rejected(self, small_blocks):
        with pytest.raises(ValueError):
            build_blocking_graph(small_blocks, scheme="LCP")

    def test_adjacency_and_degrees(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="JS")
        adjacency = graph.adjacency()
        degrees = graph.node_degrees()
        for node, edges in adjacency.items():
            assert degrees[node] == len(edges)

    @pytest.mark.parametrize("scheme", ["CBS", "JS", "WJS", "CF-IBF", "EJS"])
    def test_sparse_builder_matches_loop_builder(
        self, small_blocks, prepared_dblpacm, scheme
    ):
        """The builder's edge weights reproduce the scheme's per-pair reference."""
        for blocks in (small_blocks, prepared_dblpacm.prepared.blocks):
            graph = build_blocking_graph(blocks, scheme=scheme)
            assert graph.scheme_name == scheme
            loop_weights = get_scheme(scheme).compute(
                graph.candidates, BlockStatistics(blocks)
            )[:, 0]
            np.testing.assert_allclose(
                graph.weights, loop_weights, rtol=1e-9, atol=1e-12
            )


class TestUnsupervisedPruning:
    @pytest.mark.parametrize(
        "algorithm",
        [
            UnsupervisedWEP(),
            UnsupervisedWNP(),
            UnsupervisedRWNP(),
            UnsupervisedBLAST(),
            UnsupervisedCEP(budget=5),
            UnsupervisedCNP(budget=2),
            UnsupervisedRCNP(budget=2),
        ],
    )
    def test_masks_align_with_edges(self, small_blocks, algorithm):
        graph = build_blocking_graph(small_blocks, scheme="JS")
        mask = algorithm.prune(graph, small_blocks)
        assert mask.shape == (graph.edge_count,)
        assert mask.dtype == bool

    def test_wep_average_threshold(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="CBS")
        mask = UnsupervisedWEP().prune(graph)
        average = graph.weights.mean()
        assert np.array_equal(mask, graph.weights >= average)

    def test_rwnp_subset_of_wnp(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="JS")
        wnp = UnsupervisedWNP().prune(graph)
        rwnp = UnsupervisedRWNP().prune(graph)
        assert np.all(~rwnp | wnp)

    def test_rcnp_subset_of_cnp(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="JS")
        cnp = UnsupervisedCNP(budget=1).prune(graph)
        rcnp = UnsupervisedRCNP(budget=1).prune(graph)
        assert np.all(~rcnp | cnp)

    def test_cep_budget_respected(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="CBS")
        mask = UnsupervisedCEP(budget=3).prune(graph)
        assert mask.sum() == 3

    def test_cep_requires_blocks_without_budget(self, small_blocks):
        graph = build_blocking_graph(small_blocks, scheme="CBS")
        with pytest.raises(ValueError):
            UnsupervisedCEP().prune(graph)
        mask = UnsupervisedCEP().prune(graph, small_blocks)
        assert mask.any()

    def test_unsupervised_metablocking_improves_precision(self, prepared_abtbuy):
        """Sanity: even unsupervised pruning should raise precision over raw blocks."""
        graph = build_blocking_graph(
            prepared_abtbuy.prepared.blocks, scheme="RACCB", candidates=prepared_abtbuy.prepared.candidates
        )
        labels = prepared_abtbuy.ground_truth.labels_for(prepared_abtbuy.prepared.candidates)
        input_report = evaluate_candidates(
            prepared_abtbuy.prepared.candidates, prepared_abtbuy.ground_truth
        )
        mask = UnsupervisedWNP().prune(graph, prepared_abtbuy.prepared.blocks)
        output_report = evaluate_retained_mask(
            mask, labels, len(prepared_abtbuy.ground_truth)
        )
        assert output_report.precision > input_report.precision
        assert output_report.recall > 0.5
