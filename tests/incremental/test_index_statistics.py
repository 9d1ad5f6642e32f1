""":class:`IndexStatistics` is one implementation reading one state or many.

The weighting schemes see a streaming index only through ``statistics()``.
These properties hold the one class to what its two predecessors did
separately: K shard replicas of an index's log, merged, hand the schemes the
index's own statistics, a shipped copy of an index (LCP *counted* off its pairs) hands
them the live index's (LCP *maintained*), and over a single state nothing is
copied — a summed copy would pass every equality test and cost O(slots) per
streamed insert.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel import make_profile
from repro.incremental import IndexState, IndexStatistics, MutableBlockIndex
from repro.incremental.state import ENTITY_AGGREGATES

from test_sharded_index import SLOW_SETTINGS, JournaledIndex, apply_script, churn_scripts

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
    for name, _ in ENTITY_AGGREGATES:
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
        assert np.array_equal(
            merged.local_candidate_counts_sparse()[live],
            expected.local_candidate_counts_sparse()[live],
        )
        for name, field in ENTITY_AGGREGATES:
            # accumulated in shard order from a zero start, bit for bit
            in_shard_order = np.zeros(sharded.num_slots)
            for shard in sharded.shards:
                in_shard_order += getattr(shard, field).view()
            assert np.array_equal(getattr(merged, name), in_shard_order), name
            ours, theirs = getattr(merged, name)[live], getattr(expected, name)[live]
            if name in COUNTED or num_shards == 1:
                assert np.array_equal(ours, theirs), name
            else:
                # K partial sums of reciprocals round differently from one running
                # sum (a last-ulp difference Hypothesis finds within ~100 examples)
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
    """LCP counted off the pairs == LCP maintained; every array the very bits."""
    index = MutableBlockIndex(bilateral=bilateral)
    apply_script(index, data.draw(churn_scripts(bilateral)))
    copy = _shipped_copy(index)
    assert not hasattr(copy, "_degrees")
    everywhere = np.arange(index.num_slots)
    _assert_members_equal(copy.statistics(), index.statistics(), everywhere)
    candidates = index.candidate_set()
    if len(candidates):
        for ours, theirs in zip(
            copy.statistics().pair_cooccurrence(candidates),
            index.statistics().pair_cooccurrence(candidates),
        ):
            assert np.array_equal(ours, theirs)


def test_over_one_state_every_array_is_that_states_memory():
    """The O(delta) guard: a streamed insert's feature pass must not sum,
    copy or count anything slot-sized."""
    index = MutableBlockIndex(bilateral=True)
    for serial, text in enumerate(("alpha beta", "beta gamma", "alpha gamma")):
        index.add_entity(make_profile(f"a{serial}", t=text), side=0)
        index.add_entity(make_profile(f"b{serial}", t=text), side=1)
    statistics, shipped = index.statistics(), index.export_state()["arrays"]
    for name, _ in ENTITY_AGGREGATES:
        assert np.shares_memory(getattr(statistics, name), shipped[name]), name
    assert np.shares_memory(
        statistics.local_candidate_counts_sparse(), index._degrees.view()
    )
    # one shard is one state: the merged view takes the same path
    with JournaledIndex(bilateral=True) as journaled:
        journaled.index.add_entity(make_profile("a0", t="alpha"), side=0)
        sharded = journaled.merged(1)
        assert np.shares_memory(
            sharded.statistics().entity_cardinality,
            sharded.shards[0].export_state()["arrays"]["entity_cardinality"],
        )


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
            for name, _ in ENTITY_AGGREGATES:
                assert np.array_equal(getattr(statistics, name), np.zeros(2)), name
            assert np.array_equal(statistics.local_candidate_counts_sparse(), np.zeros(2))
