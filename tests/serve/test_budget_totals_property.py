"""Property test: pruning budgets from derived totals equal the snapshot's.

The exact online answer hands the pruning algorithm two integers read off the
rows it reads (``statistics().block_totals()``) instead of a materialised
block collection.  For random add / remove / update / bulk-load / ``compact()``
sequences — unilateral and bilateral, the index itself and 1-3 shard
replicas of its log, merged — plus a WAL-recovered session and a
checkpoint-adopting serving view, after every operation:

* the totals equal ``snapshot_blocks().total_block_assignments()`` and
  ``snapshot_blocks().index_space.total``;
* for WEP, BLAST, CEP, CNP and RCNP the mask of the shared read helper
  (:func:`repro.incremental.session.exact_answer`) equals the mask obtained
  by handing ``snapshot_blocks()`` to ``prune`` explicitly — the reference
  every exact read ran before the totals existed.
"""

import tempfile
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import make_frozen_model, merged_replicas
from repro.core.pruning import BlockTotals, get_pruning_algorithm
from repro.datamodel import make_profile
from repro.incremental import DeltaFeatureGenerator, MatchingSession, MutableBlockIndex
from repro.incremental.session import exact_answer
from repro.persistence import WriteAheadLog, write_index_snapshot
from repro.serve.router import build_pinned_view
from repro.serve.workers import ShardReplica

MODEL = make_frozen_model()
ALGORITHMS = ("WEP", "BLAST", "CEP", "CNP", "RCNP")

_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
_text = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join)


def _operations():
    sides = st.sampled_from((0, 1))
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), sides, _text),
            st.tuples(st.just("bulk"), sides, st.lists(_text, min_size=1, max_size=3)),
            st.tuples(st.just("remove"), sides, st.integers(0, 32)),
            st.tuples(st.just("update"), sides, st.integers(0, 32), _text),
            st.tuples(st.just("compact"), sides),
        ),
        min_size=1,
        max_size=12,
    )


def _apply(index, operations, bilateral):
    """Apply a generated op sequence to a raw index; yield each op's kind
    after it."""
    live = ([], [])
    serial = 0
    for operation in operations:
        kind = operation[0]
        side = operation[1] if bilateral else 0
        if kind == "add":
            serial += 1
            entity_id = f"{'ab'[side]}{serial}"
            index.add_entity(make_profile(entity_id, text=operation[2]), side=side)
            live[side].append(entity_id)
        elif kind == "bulk":
            profiles = []
            for text in operation[2]:
                serial += 1
                profiles.append(make_profile(f"{'ab'[side]}{serial}", text=text))
            index.add_entities_bulk(profiles, side=side)
            live[side].extend(profile.entity_id for profile in profiles)
        elif kind == "compact":
            index.compact()
        elif not live[side]:
            continue
        elif kind == "remove":
            entity_id = live[side][operation[2] % len(live[side])]
            index.remove_entity(entity_id, side=side)
            live[side].remove(entity_id)
        else:  # update
            entity_id = live[side][operation[2] % len(live[side])]
            index.update_entity(make_profile(entity_id, text=operation[3]), side=side)
        yield kind


def _assert_totals_and_masks(index, snapshot=None):
    """``index`` answers from its totals exactly as from ``snapshot``
    (default: its own materialised blocks)."""
    if snapshot is None:
        snapshot = index.snapshot_blocks()
    totals = index.statistics().block_totals()
    assert totals.assignments == snapshot.total_block_assignments()
    assert totals.entities == snapshot.index_space.total
    assert BlockTotals.of(snapshot) == totals
    features = DeltaFeatureGenerator(index, MODEL.feature_set)
    for name in ALGORITHMS:
        pruning = get_pruning_algorithm(name)
        candidates, probabilities, mask = exact_answer(features, MODEL, pruning)
        if len(candidates) == 0:
            assert mask.size == 0
            continue
        reference = pruning.prune(
            probabilities, candidates.canonical, snapshot
        )
        assert np.array_equal(mask, reference), f"{name} mask differs"


@settings(max_examples=40, deadline=None)
@given(
    operations=_operations(),
    bilateral=st.booleans(),
    num_shards=st.sampled_from((None, 1, 2, 3)),
)
def test_totals_and_masks_equal_the_materialised_snapshot(
    operations, bilateral, num_shards
):
    index = MutableBlockIndex(bilateral=bilateral)
    if num_shards is None:
        _assert_totals_and_masks(index)
        for _ in _apply(index, operations, bilateral):
            _assert_totals_and_masks(index)
        return
    with tempfile.TemporaryDirectory() as directory:
        wal = WriteAheadLog(directory, sync="batch")
        index.attach_wal(wal)
        try:
            for kind in chain([None], _apply(index, operations, bilateral)):
                if kind == "compact":
                    # fresh replicas adopt the compacted node space
                    write_index_snapshot(index, wal)
                view, replicas = merged_replicas(wal, index, num_shards)
                for replica in replicas:
                    replica.close()
                # the view holds no member lists: the index's materialised
                # collection is the reference
                _assert_totals_and_masks(view, snapshot=index.snapshot_blocks())
        finally:
            wal.close()


def _churned_session(path):
    session = MatchingSession(MODEL, bilateral=True, wal_path=path)
    for i, text in enumerate(
        ("alpha beta", "beta gamma", "alpha gamma delta", "gamma delta", "eps")
    ):
        session.insert(make_profile(f"a{i}", text=text), side=0)
    session.insert_bulk(
        [
            make_profile(f"b{i}", text=text)
            for i, text in enumerate(("alpha beta gamma", "beta delta", "zeta"))
        ],
        side=1,
    )
    session.remove("a1", side=0)
    session.update(make_profile("b1", text="alpha gamma"), side=1)
    return session


def test_recovered_session_answers_from_its_totals(tmp_path):
    session = _churned_session(tmp_path)
    expected = session.index.statistics().block_totals()
    session.close()
    recovered = MatchingSession.recover(tmp_path)
    try:
        assert recovered.index.statistics().block_totals() == expected
        _assert_totals_and_masks(recovered.index)
    finally:
        recovered.close()


@pytest.mark.parametrize("num_shards", (1, 2, 3))
def test_checkpoint_adopting_view_answers_from_shipped_totals(tmp_path, num_shards):
    session = _churned_session(tmp_path)
    try:
        session.checkpoint()
        session.insert(make_profile("a9", text="delta beta"), side=0)
        session.remove("a0", side=0)
        replicas = [
            ShardReplica(tmp_path, shard, num_shards) for shard in range(num_shards)
        ]
        try:
            for replica in replicas:
                replica.catch_up(session.wal.log_offset)
            assert all(replica.adopted_sequence is not None for replica in replicas)
            view = build_pinned_view(
                [replica.read_state() for replica in replicas],
                session.index.entity_id,
            )
            # the view ships no member lists: the authority's materialised
            # collection is the reference for the totals read off the rows
            _assert_totals_and_masks(view, snapshot=session.index.snapshot_blocks())
        finally:
            for replica in replicas:
                replica.close()
    finally:
        session.close()
