""":class:`IndexStatistics` is one implementation reading one state or many.

The weighting schemes see a streaming index only through its statistics.
These properties hold the one class to what it promises: K shard replicas of
an index's log, merged, hand the schemes the index's own statistics; a
shipped copy of an index hands them the live index's, its LCP counted off
the derived pairs equal to the degrees the writer maintains; and the
writer's insert-time read reads the writer's own arrays — its CSR and its
degrees — rather than a copy.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel import make_profile
from repro.incremental import IndexState, IndexStatistics, MutableBlockIndex

from test_sharded_index import SLOW_SETTINGS, JournaledIndex, apply_script, churn_scripts

pytestmark = pytest.mark.equivalence

#: the per-entity aggregates the schemes read
AGGREGATES = ("blocks_per_entity", "entity_cardinality", "entity_inv_cardinality", "entity_inv_size")
#: sums of integers: exact in any order of addition (the two sums of
#: reciprocals, ``entity_inv_cardinality`` and ``entity_inv_size``, are not)
COUNTED = ("blocks_per_entity", "entity_cardinality")


def _shipped_copy(index) -> IndexState:
    copy = IndexState()
    copy.apply_full(**index.export_state())
    return copy


def _assert_members_equal(actual: IndexStatistics, expected: IndexStatistics, live):
    assert actual.num_blocks == expected.num_blocks
    assert actual.total_cardinality == expected.total_cardinality
    assert actual.block_totals() == expected.block_totals()
    for name in AGGREGATES:
        assert np.array_equal(
            getattr(actual, name)[live], getattr(expected, name)[live]
        ), name
    assert np.array_equal(
        actual.local_candidate_counts_sparse()[live],
        expected.local_candidate_counts_sparse()[live],
    )


@SLOW_SETTINGS
@given(data=st.data(), bilateral=st.booleans(), num_shards=st.sampled_from((1, 2, 3)))
def test_sharded_statistics_equal_the_unsharded_ones(data, bilateral, num_shards):
    steps = data.draw(churn_scripts(bilateral))
    with JournaledIndex(bilateral) as journaled:
        single = journaled.index
        apply_script(single, steps)
        sharded = journaled.merged(num_shards)
        live = np.flatnonzero(single.sides() >= 0)
        expected, merged = single.statistics(), sharded.statistics()
        assert merged.num_blocks == expected.num_blocks
        assert merged.total_cardinality == expected.total_cardinality
        assert merged.block_totals() == expected.block_totals()
        assert np.array_equal(
            merged.local_candidate_counts_sparse()[live],
            expected.local_candidate_counts_sparse()[live],
        )
        for name in AGGREGATES:
            ours, theirs = getattr(merged, name)[live], getattr(expected, name)[live]
            if name in COUNTED or num_shards == 1:
                assert np.array_equal(ours, theirs), name
            else:
                # shard-major block ids add the reciprocals in another order
                # than arrival-order ids (a last-ulp difference Hypothesis
                # finds within ~100 examples)
                np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=1e-12)
        candidates = single.candidate_set()
        if len(candidates):
            assert np.array_equal(
                merged.pair_cooccurrence(candidates).common,
                expected.pair_cooccurrence(candidates).common,
            )


@SLOW_SETTINGS
@given(data=st.data(), bilateral=st.booleans())
def test_a_shipped_copy_reads_like_the_live_index(data, bilateral):
    """Every statistic the very bits, and LCP counted off the derived pairs
    equals the degrees the writer maintains."""
    index = MutableBlockIndex(bilateral=bilateral)
    apply_script(index, data.draw(churn_scripts(bilateral)))
    copy = _shipped_copy(index)
    assert not hasattr(copy, "_degrees")
    everywhere = np.arange(index.num_slots)
    _assert_members_equal(copy.statistics(), index.statistics(), everywhere)
    assert np.array_equal(copy.statistics().local_candidate_counts_sparse(), index._degrees.view())
    candidates = index.candidate_set()
    if len(candidates):
        for ours, theirs in zip(
            copy.statistics().pair_cooccurrence(candidates),
            index.statistics().pair_cooccurrence(candidates),
        ):
            assert np.array_equal(ours, theirs)


def test_the_insert_time_read_reads_the_writers_own_arrays():
    """A streamed insert's feature pass reads the writer's CSR, inverse block
    weights and degrees in place: nothing slot- or collection-sized is copied
    or counted for it."""
    index = MutableBlockIndex(bilateral=True)
    for serial, text in enumerate(("alpha beta", "beta gamma", "alpha gamma")):
        index.add_entity(make_profile(f"a{serial}", t=text), side=0)
        delta = index.add_entity(make_profile(f"b{serial}", t=text), side=1)
    statistics = index.insert_statistics(index.delta_candidate_set(delta))
    assert np.shares_memory(statistics.local_candidate_counts_sparse(), index._degrees.view())
    csr, inverse_cardinalities, inverse_sizes = statistics._merged
    assert np.shares_memory(csr.indices, index.export_state()["arrays"]["indices"])
    assert np.shares_memory(inverse_cardinalities, index._inverse_block_cardinalities.view())
    assert np.shares_memory(inverse_sizes, index._inverse_block_sizes.view())
    assert (statistics.num_blocks, statistics.total_cardinality) == (
        index.num_nonempty_blocks,
        index.total_cardinality,
    )
    # rows outside the delta's endpoints (another side-1 entity) are not summed
    other = index.node_of("b0", side=1)
    assert statistics.blocks_per_entity[other] == 0 < index.statistics().blocks_per_entity[other]


def test_an_empty_index_and_one_emptied_by_removals():
    with JournaledIndex(bilateral=True) as journaled:
        for num_shards in (1, 2):
            empty = journaled.merged(num_shards)
            statistics = empty.statistics()
            assert statistics.num_blocks == 0 and statistics.total_cardinality == 0.0
            assert statistics.blocks_per_entity.size == 0
            assert statistics.local_candidate_counts_sparse().size == 0
            assert len(empty.candidate_set()) == 0

        single = journaled.index
        single.add_entity(make_profile("a0", t="alpha beta"), side=0)
        single.add_entity(make_profile("b0", t="alpha beta"), side=1)
        single.remove_entity("a0", side=0)
        single.remove_entity("b0", side=1)
        for statistics in (
            single.statistics(),
            journaled.merged(2).statistics(),
            _shipped_copy(single).statistics(),
        ):
            assert statistics.num_blocks == 0 and statistics.total_cardinality == 0.0
            for name in AGGREGATES:
                assert np.array_equal(getattr(statistics, name), np.zeros(2)), name
            assert np.array_equal(statistics.local_candidate_counts_sparse(), np.zeros(2))
