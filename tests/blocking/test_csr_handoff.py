"""Regression tests for the zero-rebuild CSR handoff contract.

Block preparation builds the entity x block CSR incidence structure
while preparing blocks and hands it forward on :attr:`PreparedBlocks.csr`.
Statistics created through :meth:`PreparedBlocks.statistics` (and therefore
feature generation and the scheme weights unsupervised pruning reads) must
reuse it — these tests fail if any consumer re-derives the incidence
structure inside a pipeline run.
"""

import numpy as np
import pytest

import repro.weights.statistics as statistics_module
from repro.blocking import PreparedBlocks, prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking

from reference import block_statistics, blocks_of


@pytest.fixture()
def forbid_csr_rebuild(monkeypatch):
    """Make any CSR rebuild by the statistics fail loudly."""

    def _forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("the statistics built a CSR — the prepared CSR was not reused")

    monkeypatch.setattr(statistics_module, "entity_block_csr_from_memberships", _forbidden)


class TestHandoff:
    def test_prepared_csr_matches_a_fresh_build(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        reference = block_statistics(blocks_of(prepared.blocks), prepared.candidates).csr()
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

    def test_mismatched_csr_rejected(self, dblpacm_dataset):
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        raw = prepared.raw_blocks
        mismatched = PreparedBlocks(raw, raw, raw, prepared.candidates, csr=prepared.csr)
        with pytest.raises(ValueError, match="does not match"):
            mismatched.statistics()


class TestBlockPreparationStage:
    def test_prepare_and_run_record_the_stage(self, dblpacm_dataset):
        """``repro quickstart``'s accounting: the preparation's total as one
        stage ahead of the run's."""
        prepared = prepare_blocks(dblpacm_dataset.first, dblpacm_dataset.second)
        pipeline = GeneralizedSupervisedMetaBlocking(training_size=50, seed=0)
        result = pipeline.run(
            prepared.blocks,
            prepared.candidates,
            dblpacm_dataset.ground_truth,
            stats=prepared.statistics(),
        )
        assert prepared.timer.total > 0.0
        # RT covers the paper's stages, in the order quickstart prints them
        assert list(result.timer.as_dict()) == ["features", "training", "scoring", "pruning"]
        assert all(seconds > 0.0 for seconds in result.timer.as_dict().values())
