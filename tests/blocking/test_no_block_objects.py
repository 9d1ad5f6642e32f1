"""The batch hot path is array-only: no :class:`Block` is built to answer.

``prepare_blocks`` returns every stage as a
:class:`~repro.blocking.arrayops.LazyBlockCollection`, which answers what the
pipeline reads — length, totals, per-block sizes and cardinalities — from its
membership matrix, and ``BlockStatistics`` reads those instead of walking
``Block`` objects.  So ``run_on_collections`` constructs none, for any
pruning algorithm, dirty or clean-clean; the objects appear only when
something iterates the collection, and are then the reference chain's.
"""

import numpy as np
import pytest

from reference import reference_prepare_blocks
from repro.blocking import prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.datamodel import Block
from repro.datasets import load_benchmark, load_dirty_dataset


def _forbid_blocks(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a Block was constructed on the batch hot path")

    monkeypatch.setattr(Block, "__init__", refuse)


@pytest.fixture(scope="module", params=["clean-clean", "dirty"])
def dataset(request):
    if request.param == "dirty":
        generated = load_dirty_dataset("D10K", seed=4, scale=0.08)
        return generated.collection, None, generated.ground_truth
    generated = load_benchmark("DblpAcm", seed=4, scale=0.1)
    return generated.first, generated.second, generated.ground_truth


@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_run_on_collections_constructs_no_block(dataset, monkeypatch, pruning):
    first, second, truth = dataset
    pipeline = GeneralizedSupervisedMetaBlocking(pruning=pruning, seed=3)
    _forbid_blocks(monkeypatch)
    result = pipeline.run_on_collections(first, second, truth)
    assert 0 < result.retained_count <= len(result.candidates)


def test_aggregates_come_from_the_matrix_and_blocks_materialise_on_demand(
    dataset, monkeypatch
):
    first, second, _ = dataset
    reference = reference_prepare_blocks(first, second)
    with monkeypatch.context() as patch:
        _forbid_blocks(patch)
        prepared = prepare_blocks(first, second)
        for ours, theirs in (
            (prepared.raw_blocks, reference.raw_blocks),
            (prepared.purged_blocks, reference.purged_blocks),
            (prepared.blocks, reference.blocks),
        ):
            assert len(ours) == len(theirs)
            assert ours.total_block_assignments() == theirs.total_block_assignments()
            assert ours.total_comparisons() == theirs.total_comparisons()
            assert np.array_equal(ours.block_sizes(), theirs.block_sizes())
            assert np.array_equal(ours.block_cardinalities(), theirs.block_cardinalities())
        stats = prepared.statistics()
        assert stats.num_blocks == len(reference.blocks)
    # iterating afterwards still yields the object chain's blocks
    materialised = list(prepared.blocks)
    assert materialised == list(reference.blocks)
    assert prepared.blocks[0] == reference.blocks[0]
