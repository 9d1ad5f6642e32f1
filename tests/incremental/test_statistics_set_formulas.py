"""Batch preparation and a stream's exact read build one ``BlockStatistics``,
and both equal the paper's set formulas.

Batch preparation hands :class:`~repro.weights.BlockStatistics` its filtered
matrix; a streaming index's exact read hands it the live rows it cleaned,
mapped back to raw node slots (:class:`~repro.incremental.IndexStatistics`).
This property churns an index (inserts, bulk loads, removals, updates), reads
it as one state and as two merged shards, with and without the paper's block
cleaning, prepares the live entities in batch, and holds both statistics,
array for array, to the set formulas of ``tests/reference.py`` over the
``Block`` member lists its own chain builds from the same entities
(``reference_prepare_blocks``): ``|B|``, ``||B||``, per entity ``|B_i|``,
``||e_i||``, ``Σ 1/||b||``, ``Σ 1/|b|`` and LCP, and per candidate pair
``|B_i ∩ B_j|`` and the two shared-block sums.  A slot holding no live
entity reads zero everywhere.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import prepare_blocks

from reference import CLEANINGS, reference_block_sets, reference_lcp, reference_prepare_blocks
from test_derived_candidates import _live_collections
from test_sharded_index import JournaledIndex, apply_script, churn_scripts

pytestmark = pytest.mark.equivalence


def _assert_set_formulas(stats, slots, expected, left, right, aggregates):
    """``stats`` at node ids ``slots`` (one per entity of ``expected``, in its
    numbering) against the set formulas over ``expected.blocks``; ``left`` /
    ``right`` are candidate pairs in ``expected``'s numbering and
    ``aggregates`` the statistics' co-occurrence of those pairs."""
    sets = reference_block_sets(expected.blocks)
    of_node = sets.of_node
    assert stats.num_blocks == len(sets.size)
    assert stats.total_cardinality == sum(sets.cardinality)
    dead = np.ones(stats.sides.size, dtype=bool)
    dead[slots] = False
    for name in ("blocks_per_entity", "entity_cardinality", "entity_inv_cardinality",
                 "entity_inv_size"):
        assert not getattr(stats, name)[dead].any(), name
    assert stats.blocks_per_entity[slots].tolist() == [len(ids) for ids in of_node]
    assert stats.entity_cardinality[slots].tolist() == [
        sets.entity_cardinality(ids) for ids in of_node
    ]
    # the reciprocal sums add the same terms in block-id order, not set order
    for name, formula in (
        ("entity_inv_cardinality", sets.inverse_cardinality),
        ("entity_inv_size", sets.inverse_size),
    ):
        np.testing.assert_allclose(
            getattr(stats, name)[slots], [formula(ids) for ids in of_node], rtol=1e-12, atol=0,
            err_msg=name,
        )
    lcp = stats.local_candidate_counts_sparse()
    assert not lcp[dead].any()
    assert np.array_equal(lcp[slots], reference_lcp(expected.blocks))

    shared = [of_node[i] & of_node[j] for i, j in zip(left.tolist(), right.tolist())]
    assert aggregates.common.tolist() == [len(ids) for ids in shared]
    np.testing.assert_allclose(
        aggregates.sum_inverse_cardinality, [sets.inverse_cardinality(ids) for ids in shared],
        rtol=1e-12, atol=0,
    )
    np.testing.assert_allclose(
        aggregates.sum_inverse_size, [sets.inverse_size(ids) for ids in shared],
        rtol=1e-12, atol=0,
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    bilateral=st.booleans(),
    num_shards=st.sampled_from((1, 2)),
    cleaning=st.sampled_from(sorted(CLEANINGS)),
)
def test_batch_and_stream_statistics_equal_the_set_formulas(data, bilateral, num_shards, cleaning):
    steps = data.draw(churn_scripts(bilateral))
    first, second = _live_collections(steps, bilateral)
    with JournaledIndex(bilateral) as journaled:
        apply_script(journaled.index, steps)
        view = journaled.merged(num_shards)
        stream = view.statistics(CLEANINGS[cleaning])
        live = stream.live_candidates()
        canonical = view.canonical_node_ids()
        if not len(first) + (len(second) if bilateral else 0):
            assert stream.num_blocks == 0 and len(live) == 0
            assert not stream.blocks_per_entity.any()
            return
        expected = reference_prepare_blocks(first, second, cleaning=CLEANINGS[cleaning])
        left, right = expected.candidates.left, expected.candidates.right
        assert np.array_equal(live.canonical.left, left)
        assert np.array_equal(live.canonical.right, right)

        slots = np.empty(expected.blocks.index_space.total, dtype=np.int64)
        slots[canonical[canonical >= 0]] = np.flatnonzero(canonical >= 0)
        _assert_set_formulas(
            stream, slots, expected, left, right, stream.pair_cooccurrence(live)
        )

    prepared = prepare_blocks(first, second, cleaning=CLEANINGS[cleaning])
    batch = prepared.statistics()
    assert np.array_equal(prepared.candidates.left, left)
    assert np.array_equal(prepared.candidates.right, right)
    _assert_set_formulas(
        batch,
        np.arange(expected.blocks.index_space.total),
        expected,
        left,
        right,
        batch.pair_cooccurrence(prepared.candidates),
    )
