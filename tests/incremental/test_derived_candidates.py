"""The candidate pairs an answer derives from the CSR are the member lists'.

No index stores its pairs: ``candidate_set()``, the exact answer and a bare
state's LCP all come out of one reduce pass over the CSR rows of the live
nodes (:meth:`IndexStatistics.live_candidates`).  The per-block member lists
are a writer-only structure of :class:`MutableBlockIndex` — which makes the
pairs they spawn the independent oracle here.  After every prefix of a random
add / bulk / remove / update script (with a checkpoint-and-recover thrown
in, which compacts the index), for
unilateral and bilateral indexes and for one, two and three shard replicas of
their logs, merged:

(i)   the derived set equals, as a set of raw-id pairs, the plain-Python union
      of the pairs the shards' member lists spawn, and counts ``num_pairs``
      pairs;
(ii)  its canonical twin equals the batch pipeline's candidates on the live
      entities in arrival order, array for array;
(iii) the aggregates seeded alongside are ``array_equal`` — no tolerance — to
      ``compute_pair_cooccurrence`` over the oracle's pairs and the blocks
      the view reads, through either of its passes;
(iv)  LCP counted off the derived set equals the degrees the index maintains.

Under the paper's block cleaning (``prepare_blocks``' defaults: Block
Purging 0.5, Block Filtering 0.8) the derived set is the cleaned live
collection's, and after every prefix, for one, two and three replicas:

(v)   its canonical twin equals what ``prepare_blocks`` with its defaults
      extracts from the live entities, array for array, and every statistic
      the schemes read — per-entity aggregates, ``|B|``, ``||B||``, LCP, the
      pruning budgets' block totals — equals the batch statistics';
(vi)  the seeded aggregates are ``array_equal`` to the co-occurrence kernel
      over the cleaned CSR, through either pass;
(vii) the merged replicas read it bit for bit as the index itself does:
      the cleaned blocks are numbered by (cardinality, member-set key), not
      by shard-major or arrival-order ids.

And when :func:`repro.pairs.key_field_bits` refuses the ``(rank, rank, block
id)`` key, the pairs-only fallback still answers what the batch pipeline
answers, for every pruning algorithm and under both questions.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import pairs
from repro.blocking import prepare_blocks
from repro.blocking.cleaning import PAPER_CLEANING
from repro.core.pruning import PRUNING_ALGORITHMS, BlockTotals
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import IndexState, MatchingSession, MergedIndexView
from repro.serve.router import match_answer
from repro.weights import sparse
from repro.weights.sparse import PairCooccurrence, compute_pair_cooccurrence

from reference import (
    CLEANINGS,
    batch_retained_ids,
    member_pairs,
    merged_replicas,
    reference_counterparts,
)
from reference import forced_cooccurrence_pass as forced
from test_session_property import _frozen_model
from test_sharded_index import JournaledIndex, apply_script, churn_scripts, pairs_of

pytestmark = pytest.mark.equivalence


def _live_collections(steps, bilateral):
    """The live entities a script prefix ends in, per side, in arrival order
    (an update re-enters at the end)."""
    live = {}
    for step in steps:
        if step[0] == "add":
            live[step[1], step[2]] = step[3]
        elif step[0] == "bulk":
            live.update(((entity_id, step[2]), tokens) for entity_id, tokens in step[1])
        else:
            del live[step[1], step[2]]
            if step[0] == "update":
                live[step[1], step[2]] = step[3]

    def collection(side, **kwargs):
        return EntityCollection(
            [
                make_profile(entity_id, t=" ".join(tokens))
                for (entity_id, of_side), tokens in live.items()
                if of_side == side
            ],
            name=f"side{side}",
            **kwargs,
        )

    if bilateral:
        return collection(0), collection(1)
    return collection(0, is_clean=False), None


def _assert_derived_equals_member_pairs(index, shards, steps, bilateral, maintained):
    statistics = index.statistics()
    derived = statistics.live_candidates()
    oracle = member_pairs(shards)

    # (i) the same pairs, each once, in sorted canonical order
    assert pairs_of(derived) == oracle and len(derived) == len(oracle)
    canonical = index.canonical_node_ids()
    assert np.array_equal(
        np.sort(np.stack((canonical[derived.left], canonical[derived.right])), axis=0),
        np.stack((derived.canonical.left, derived.canonical.right)),
    )
    assert np.array_equal(canonical[derived.first], derived.canonical.left)
    assert np.array_equal(canonical[derived.second], derived.canonical.right)

    # (ii) array for array what block preparation extracts
    first, second = _live_collections(steps, bilateral)
    if len(first) + (len(second) if bilateral else 0):
        batch = prepare_blocks(
            first, second, apply_purging=False, apply_filtering=False
        ).candidates
        assert np.array_equal(derived.canonical.left, batch.left)
        assert np.array_equal(derived.canonical.right, batch.right)
    else:
        assert len(derived) == 0

    # (iii) the seeded aggregates, against the kernel over the oracle's pairs
    with mock.patch.object(
        sparse, "compute_pair_cooccurrence", side_effect=AssertionError("not seeded")
    ):
        seeded = statistics.pair_cooccurrence(derived)
    if oracle:
        left, right = (np.array(nodes, dtype=np.int64) for nodes in zip(*sorted(oracle)))
        by_raw_key = np.argsort(pairs.pack_pair_keys(derived.left, derived.right))
        for path in ("reduce", "pair-major"):
            with forced(path):
                computed = compute_pair_cooccurrence(
                    *statistics._merged, left, right, index.sides()
                )
            for name in PairCooccurrence._fields:
                assert np.array_equal(
                    getattr(seeded, name)[by_raw_key], getattr(computed, name)
                ), (path, name)

    # (iv) LCP is the degree of a node in the derived set
    degrees = np.bincount(derived.left, minlength=index.num_slots)
    degrees += np.bincount(derived.right, minlength=index.num_slots)
    live = index.sides() >= 0
    assert not degrees[~live].any()
    assert np.array_equal(degrees[live], maintained[live])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    bilateral=st.booleans(),
    num_shards=st.sampled_from((1, 2, 3)),
    recover_after=st.integers(1, 12),
)
def test_derived_candidates_equal_the_member_pairs_after_every_prefix(
    data, bilateral, num_shards, recover_after
):
    steps = data.draw(churn_scripts(bilateral))
    with JournaledIndex(bilateral) as journaled:
        for done, step in enumerate(steps, start=1):
            apply_script(journaled.index, [step])
            if done == recover_after:
                journaled.checkpoint_and_recover()
            single = journaled.index
            sharded = journaled.merged(num_shards)
            assert len(single.candidate_set()) == single.num_pairs
            # one node space: the unsharded index's maintained degrees serve both
            checks = (steps[:done], bilateral, single._degrees.view())
            _assert_derived_equals_member_pairs(single, [single], *checks)
            _assert_derived_equals_member_pairs(sharded, sharded.shards, *checks)
            ours, theirs = sharded.candidate_set(), single.candidate_set()
            assert np.array_equal(ours.left, theirs.left)
            assert np.array_equal(ours.right, theirs.right)


#: the statistics the schemes read, per node slot
PER_ENTITY = ("blocks_per_entity", "entity_cardinality", "entity_inv_cardinality", "entity_inv_size")


def _assert_cleaned_equals_the_paper_pipeline(index, steps, bilateral):
    statistics = index.statistics(PAPER_CLEANING)
    derived = statistics.live_candidates()
    first, second = _live_collections(steps, bilateral)
    if not len(first) + (len(second) if bilateral else 0):
        assert len(derived) == 0 and statistics.num_blocks == 0
        return statistics

    # (v) the pairs and every statistic of the batch pipeline's defaults
    prepared = prepare_blocks(first, second)
    assert np.array_equal(derived.canonical.left, prepared.candidates.left)
    assert np.array_equal(derived.canonical.right, prepared.candidates.right)
    batch = prepared.statistics()
    canonical = index.canonical_node_ids()
    live = canonical >= 0
    for name in PER_ENTITY:
        ours = getattr(statistics, name)
        assert not ours[~live].any()
        np.testing.assert_allclose(ours[live], getattr(batch, name)[canonical[live]], rtol=1e-12)
    np.testing.assert_array_equal(
        statistics.local_candidate_counts_sparse()[live],
        batch.local_candidate_counts_sparse()[canonical[live]],
    )
    assert statistics.num_blocks == batch.num_blocks == len(prepared.blocks)
    assert statistics.total_cardinality == batch.total_cardinality
    assert statistics.block_totals() == BlockTotals.of(prepared.blocks)

    # (vi) the seeded aggregates, against the kernel over the cleaned CSR
    with mock.patch.object(
        sparse, "compute_pair_cooccurrence", side_effect=AssertionError("not seeded")
    ):
        seeded = statistics.pair_cooccurrence(derived)
    for path in ("reduce", "pair-major"):
        with forced(path):
            computed = compute_pair_cooccurrence(
                *statistics._merged, derived.left, derived.right, index.sides()
            )
        for name in PairCooccurrence._fields:
            assert np.array_equal(getattr(seeded, name), getattr(computed, name)), (path, name)
    return statistics


def _assert_read_alike(ours, theirs):
    """(vii) two statistics views that read the same collection, bit for bit."""
    assert np.array_equal(ours.live_candidates().left, theirs.live_candidates().left)
    assert np.array_equal(ours.live_candidates().right, theirs.live_candidates().right)
    for name in PER_ENTITY:
        assert np.array_equal(getattr(ours, name), getattr(theirs, name)), name
    assert np.array_equal(
        ours.local_candidate_counts_sparse(), theirs.local_candidate_counts_sparse()
    )
    assert (ours.num_blocks, ours.total_cardinality, ours.block_totals()) == (
        theirs.num_blocks, theirs.total_cardinality, theirs.block_totals()
    )
    for mine, other in zip(
        ours.pair_cooccurrence(ours.live_candidates()),
        theirs.pair_cooccurrence(theirs.live_candidates()),
    ):
        assert np.array_equal(mine, other)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(),
    bilateral=st.booleans(),
    num_shards=st.sampled_from((1, 2, 3)),
    recover_after=st.integers(1, 12),
)
def test_cleaned_candidates_equal_the_paper_pipeline_after_every_prefix(
    data, bilateral, num_shards, recover_after
):
    steps = data.draw(churn_scripts(bilateral))
    with JournaledIndex(bilateral) as journaled:
        for done, step in enumerate(steps, start=1):
            apply_script(journaled.index, [step])
            if done == recover_after:
                journaled.checkpoint_and_recover()
            single = journaled.index
            ours = _assert_cleaned_equals_the_paper_pipeline(single, steps[:done], bilateral)
            sharded = journaled.merged(num_shards)
            _assert_read_alike(sharded.statistics(PAPER_CLEANING), ours)


def _empty(derived):
    return len(derived) == len(derived.canonical) == derived.first.size == 0


@pytest.mark.parametrize("bilateral", (False, True))
@pytest.mark.parametrize("num_shards", (1, 2))
def test_the_edges_derive_nothing_and_recover(bilateral, num_shards):
    other = 1 if bilateral else 0
    with JournaledIndex(bilateral) as journaled:
        writer = journaled.index
        index = journaled.merged(num_shards)
        assert _empty(index.candidate_set())  # empty index

        # one side empty (bilateral): a block with a single side emits nothing
        writer.add_entity(make_profile("x0", t="alpha beta"), side=0)
        writer.add_entity(make_profile("x1", t="alpha"), side=0)
        index = journaled.merged(num_shards)
        assert len(index.candidate_set()) == (0 if bilateral else 1)

        writer.add_entity(make_profile("y0", t="alpha beta"), side=other)
        index = journaled.merged(num_shards)
        assert pairs_of(index.candidate_set()) == member_pairs(index.shards)
        assert len(index.candidate_set()) == (2 if bilateral else 3)

        # a block emptied ...
        for entity_id, side in (("x0", 0), ("y0", other)):
            writer.remove_entity(entity_id, side=side)
        assert _empty(journaled.merged(num_shards).candidate_set())
        # ... and re-joined: the stale rows of x0 / y0 still list it
        writer.add_entity(make_profile("y1", t="beta"), side=other)
        writer.add_entity(make_profile("x2", t="beta"), side=0)
        index = journaled.merged(num_shards)
        derived = index.candidate_set()
        assert pairs_of(derived) == member_pairs(index.shards) == {(3, 4)}
        assert derived.id_pairs(np.ones(1, dtype=bool), index.entity_id) == [
            ("x2", "y1") if bilateral else ("y1", "x2")
        ]

        # every entity removed: rows and blocks stay behind, no pair does
        for entity_id, side in (("x1", 0), ("y1", other), ("x2", 0)):
            writer.remove_entity(entity_id, side=side)
        index = journaled.merged(num_shards)
        assert index.num_entities == 0 and index.num_slots == 5 and index.num_blocks == 2
        assert _empty(index.candidate_set())
        statistics = index.statistics()
        assert np.array_equal(statistics.local_candidate_counts_sparse(), np.zeros(5))
        assert reference_counterparts(statistics, 4).size == 0


def _shipped(index):
    """The bare states a router would hold for ``index``'s shards."""
    states = []
    for shard in index.shards:
        state = IndexState()
        state.apply_full(**shard.export_state())
        states.append(state)
    return MergedIndexView(states, index.entity_id)


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_a_refused_key_falls_back_to_the_pairs_alone(tmp_path, pruning, cleaning):
    """One bit short of ``(rank, rank, block id)``: the derivation hands on the
    pairs without aggregates, the kernel computes them pair-major, and
    ``retained()`` / ``match`` still equal the batch oracle."""
    model = _frozen_model(cleaning)
    texts = ("alpha beta", "beta gamma", "alpha gamma delta", "gamma delta", "alpha eps", "zeta")
    first = EntityCollection(
        [make_profile(f"a{i}", text=text) for i, text in enumerate(texts)], name="a"
    )
    second = EntityCollection(
        [make_profile(f"b{i}", text=text) for i, text in enumerate(reversed(texts))], name="b"
    )
    session = MatchingSession(model, bilateral=True, pruning=pruning, wal_path=tmp_path)
    index = session.index
    for profile in first:
        index.add_entity(profile, side=0)
    for profile in second:
        index.add_entity(profile, side=1)
    # a stale row and a dead block: liveness must not come from a stored pair list
    index.remove_entity("a5", side=0)
    sharded, replicas = merged_replicas(session.wal, index, 2)
    # caught up, the replicas' indexes need neither their log nor the writer's
    for replica in replicas:
        replica.close()
    session.close()
    live_first = EntityCollection(list(first)[:-1], name="a")

    prepared = prepare_blocks(live_first, second, **CLEANINGS[cleaning].prepare_arguments())
    ids = [profile.entity_id for profile in (*live_first, *second)]
    oracle = batch_retained_ids(
        prepared.blocks, prepared.candidates, model, pruning, ids.__getitem__
    )
    assert oracle

    live = session.index.num_entities
    read_blocks = session.index.statistics(model.cleaning).num_blocks
    short = sum(pairs.key_field_bits(live, live, read_blocks)) - 1
    refusing = mock.patch.object(pairs, "KEY_BITS", short)
    no_reduce = mock.patch.object(
        sparse, "reduce_pair_cooccurrence", side_effect=AssertionError("key not refused")
    )
    with refusing, no_reduce:
        result = session.retained()
        answer = match_answer(_shipped(sharded), model, session.pruning)
    assert np.array_equal(result.candidates.canonical.left, prepared.candidates.left)
    assert np.array_equal(result.candidates.canonical.right, prepared.candidates.right)
    assert {frozenset(pair) for pair in result.retained_ids} == oracle
    assert [tuple(row[:2]) for row in answer["retained"]] == sorted(result.retained_ids)
    assert answer["num_candidates"] == len(prepared.candidates)
    # un-refused, the same answer comes with the probabilities' very bits
    reference = session.retained()
    assert np.array_equal(reference.probabilities, result.probabilities)
    assert reference.retained_ids == result.retained_ids
