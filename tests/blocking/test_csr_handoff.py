"""Regression tests for the zero-rebuild CSR handoff contract.

Block preparation builds the entity x block CSR incidence structure
while preparing blocks and hands it forward on :attr:`PreparedBlocks.csr`.
Statistics created through :meth:`PreparedBlocks.statistics` (and therefore
feature generation and ``build_blocking_graph``) must reuse it —
these tests fail if any consumer re-derives the incidence structure inside a
pipeline run.
"""

import numpy as np
import pytest

import repro.weights.sparse as sparse_module
import repro.weights.statistics as statistics_module
from repro.blocking import prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.metablocking import build_blocking_graph
from repro.weights import BlockStatistics, build_entity_block_csr


@pytest.fixture()
def forbid_csr_rebuild(monkeypatch):
    """Make any CSR rebuild (from Block objects) fail loudly."""

    def _forbidden(blocks):  # pragma: no cover - failure path
        raise AssertionError(
            "build_entity_block_csr was called — the prepared CSR was not reused"
        )

    monkeypatch.setattr(sparse_module, "build_entity_block_csr", _forbidden)
    monkeypatch.setattr(statistics_module, "build_entity_block_csr", _forbidden)


class TestHandoff:
    def test_prepared_csr_matches_a_fresh_build(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        reference = build_entity_block_csr(prepared.blocks)
        assert np.array_equal(prepared.csr.indptr, reference.indptr)
        assert np.array_equal(prepared.csr.indices, reference.indices)

    def test_statistics_reuse_the_prepared_csr(self, dblpacm_dataset, forbid_csr_rebuild):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        stats = prepared.statistics()
        assert stats.csr() is prepared.csr
        assert prepared.statistics() is stats  # cached

    def test_pipeline_run_never_rebuilds_the_csr(self, dblpacm_dataset, forbid_csr_rebuild):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared.blocks,
            prepared.candidates,
            dblpacm_dataset.ground_truth,
            stats=prepared.statistics(),
        )
        assert result.retained_count > 0

    def test_blocking_graph_reuses_the_prepared_csr(self, dblpacm_dataset, forbid_csr_rebuild):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        graph = build_blocking_graph(
            prepared.blocks,
            scheme="CBS",
            candidates=prepared.candidates,
            csr=prepared.csr,
        )
        assert graph.edge_count == len(prepared.candidates)

    def test_mismatched_csr_rejected(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        with pytest.raises(ValueError, match="does not match"):
            BlockStatistics(prepared.raw_blocks, csr=prepared.csr)


class TestBlockPreparationStage:
    def test_run_on_collections_records_the_stage(self, dblpacm_dataset):
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run_on_collections(
            dblpacm_dataset.first, dblpacm_dataset.second, dblpacm_dataset.ground_truth
        )
        assert result.timer.get("block-preparation") > 0.0
        # RT still covers the paper's stages on top of the new one
        for stage in ("features", "training", "scoring", "pruning"):
            assert result.timer.get(stage) > 0.0
        assert result.runtime_seconds >= result.timer.get("block-preparation")

    def test_prepare_blocks_feeds_an_external_timer(self, dblpacm_dataset):
        from repro.utils.timing import StageTimer

        timer = StageTimer()
        prepared = prepare_blocks(
            dblpacm_dataset.first,
            dblpacm_dataset.second,
            timer=timer,
        )
        assert timer.get("block-preparation") == pytest.approx(
            prepared.timer.total
        )
