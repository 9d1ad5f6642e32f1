"""Checkpoint adoption: O(tail) bootstrap, identical to from-zero.

A replica bootstrapped by *adopting* a checkpoint (rebuilding the node
space from the snapshot's slot layout, then replaying only the WAL tail
past its embedded offset) must match a replica that replayed the whole
log from byte zero, for any operation stream, any shard count, and any
interleaving of checkpoints with the stream.  "Match" means the *live
projection* is identical: node numbering and sides, each live node's
block memberships, every spawning block's state (keyed by block key —
a compacting checkpoint drops the empty blocks and stale CSR rows that
a from-zero replay keeps around for tombstoned entities, so raw block
ids can differ), the live pair set, and per-node float aggregates to
within one ULP (the two paths can order summations differently).
Answer-level results are still exact:
``test_adoption_answers_match_canonical`` compares retained pairs with
no tolerance.  The follower's accounting (``records_delivered`` /
``bytes_skipped``) proves the bootstrap really was O(tail): an adopted
replica parses only the post-snapshot records.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import make_frozen_model, rebuilt_view, reference_retained
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.persistence.log import LOG_MAGIC, WriteAheadLog
from repro.persistence import SNAPSHOT_FORMAT
from repro.serve.router import match_answer
from repro.serve.workers import ShardReplica, WalFollowError

MODEL = make_frozen_model()

_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
_text = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join)

#: an adopt_floor above any real sequence: adoption finds nothing eligible
#: and the replica replays from byte zero — the oracle bootstrap path
NEVER_ADOPT = 10**6


def _canonical_state(replica):
    """The replica's live projection, normalized by block key.

    Block ids are an artifact of replay history (a compacting checkpoint
    never recreates emptied blocks), so per-block state is keyed by block
    key and tombstoned nodes' stale CSR rows are masked out.
    """
    index = replica.index
    sides = index._sides.view()
    indptr = index._indptr.view()
    indices = index._indices.view()
    keys = index._block_keys
    rows = []
    for node in range(len(sides)):
        if sides[node] < 0:
            rows.append(None)
        else:
            rows.append(
                frozenset(
                    keys[int(b)]
                    for b in indices[indptr[node] : indptr[node + 1]]
                )
            )
    cardinalities = index._block_cardinalities.view()
    blocks = {}
    for block_id in np.flatnonzero(cardinalities > 0).tolist():
        blocks[keys[block_id]] = {
            "cardinality": int(cardinalities[block_id]),
            "size": int(index._block_sizes[block_id]),
            "inv_cardinality": float(index._inverse_block_cardinalities[block_id]),
            "inv_size": float(index._inverse_block_sizes[block_id]),
            "members_first": sorted(index._members_first[block_id]),
            "members_second": sorted(index._members_second[block_id]),
        }
    candidates = index.candidate_set()
    pairs = (
        index.num_pairs,
        set(zip(candidates.left.tolist(), candidates.right.tolist())),
    )
    statistics = index.statistics()
    per_node = {
        name: getattr(statistics, name)
        for name in (
            "blocks_per_entity",
            "entity_cardinality",
            "entity_inv_cardinality",
            "entity_inv_size",
        )
    }
    per_node["degrees"] = index._degrees.view()
    return {
        "sides": sides.tolist(),
        "rows": rows,
        "blocks": blocks,
        "pairs": pairs,
        "per_node": per_node,
    }


def _assert_replicas_identical(adopted, from_zero):
    """The two replicas' live projections are identical.

    Topology, ids, and counts are compared exactly; the derived float
    aggregates with ``atol=1e-12`` because the adopted rebuild numbers the
    blocks differently, which can reorder summations by one ULP.
    """
    left, right = _canonical_state(adopted), _canonical_state(from_zero)
    assert left["sides"] == right["sides"], "node numbering and liveness"
    for node, (ours, theirs) in enumerate(zip(left["rows"], right["rows"])):
        if ours is not None:
            assert ours == theirs, f"node {node} block memberships"
    assert left["pairs"] == right["pairs"]
    assert set(left["blocks"]) == set(right["blocks"]), "spawning block keys"
    for key, ours in left["blocks"].items():
        theirs = right["blocks"][key]
        for field in ("cardinality", "size", "members_first", "members_second"):
            assert ours[field] == theirs[field], f"block {key!r} {field}"
        for field in ("inv_cardinality", "inv_size"):
            assert ours[field] == pytest.approx(
                theirs[field], rel=0, abs=1e-12
            ), f"block {key!r} {field}"
    for name, ours in left["per_node"].items():
        np.testing.assert_allclose(
            ours, right["per_node"][name], rtol=0, atol=1e-12,
            err_msg=f"array {name!r}",
        )
    assert (adopted.shard, adopted.offset) == (from_zero.shard, from_zero.offset)
    left_meta = adopted.index.export_state()["meta"]
    right_meta = from_zero.index.export_state()["meta"]
    for key in ("bilateral", "side_counts"):
        assert left_meta[key] == right_meta[key], f"meta {key!r}"
    for name in ("num_nonempty_blocks", "total_cardinality"):
        assert getattr(adopted.index, name) == getattr(from_zero.index, name), name


class TestAdoptionUnit:
    def _session(self, tmp, count=6):
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp)
        for i in range(count):
            text = " ".join(_TOKENS[(i + j) % len(_TOKENS)] for j in range(3))
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        return session

    def test_adopted_replica_replays_only_the_tail(self, tmp_path):
        session = self._session(tmp_path)
        snapshot_path = session.checkpoint()
        snapshot_offset = int(
            session.wal.load_snapshot(snapshot_path)["log_offset"]
        )
        session.insert(make_profile("a9", text="delta beta"), side=0)
        session.insert(make_profile("b9", text="alpha delta"), side=1)
        offset = session.wal.log_offset
        tail_records = [
            r for r in session.wal.scan().records if r.start >= snapshot_offset
        ]
        try:
            adopted = ShardReplica(tmp_path, 0, 1)
            adopted.catch_up(offset)
            assert adopted.adopted_sequence == WriteAheadLog._snapshot_sequence(
                snapshot_path
            )
            # O(tail): only the post-snapshot records were ever parsed
            assert adopted.follower.records_delivered == len(tail_records)
            assert adopted.follower.bytes_skipped == snapshot_offset - len(
                LOG_MAGIC
            )

            from_zero = ShardReplica(tmp_path, 0, 1, adopt_floor=NEVER_ADOPT)
            from_zero.catch_up(offset)
            assert from_zero.adopted_sequence is None
            assert from_zero.follower.bytes_skipped == 0
            assert from_zero.follower.records_delivered > len(tail_records)
            _assert_replicas_identical(adopted, from_zero)
            adopted.close()
            from_zero.close()
        finally:
            session.close()

    def test_adoption_answers_match_canonical(self, tmp_path):
        session = self._session(tmp_path)
        session.checkpoint()
        session.remove("a2", side=0)
        session.update(make_profile("b1", text="zeta eps"), side=1)
        offset = session.wal.log_offset
        try:
            replicas = [ShardReplica(tmp_path, k, 2) for k in range(2)]
            for replica in replicas:
                replica.catch_up(offset)
            assert all(r.adopted_sequence is not None for r in replicas)
            view = rebuilt_view([r.index for r in replicas], session.index.entity_id)
            answer = match_answer(view, view.entity_id, MODEL, session.pruning)
            assert answer["retained"] == reference_retained(session)
            for replica in replicas:
                replica.close()
        finally:
            session.close()

    def test_a_checkpoint_in_another_state_format_is_skipped(self, tmp_path):
        """Like an undecodable one: the replica tries the next-older snapshot."""
        session = self._session(tmp_path)
        readable = session.checkpoint()
        offset = session.wal.log_offset
        state = session.wal.load_snapshot(readable)
        session.wal.write_snapshot(dict(state, format=SNAPSHOT_FORMAT + 1))
        try:
            replica = ShardReplica(tmp_path, 0, 1)
            replica.catch_up(offset)
            assert replica.adopted_sequence == WriteAheadLog._snapshot_sequence(readable)
            replica.close()
        finally:
            session.close()

    def test_floor_without_snapshot_refuses_from_zero(self, tmp_path):
        session = self._session(tmp_path, count=1)
        offset = session.wal.log_offset
        try:
            replica = ShardReplica(
                tmp_path, 0, 1, adopt_floor=NEVER_ADOPT, allow_from_zero=False
            )
            with pytest.raises(WalFollowError, match="no adoptable snapshot"):
                replica.catch_up(offset)
            replica.close()
        finally:
            session.close()


def _operations():
    sides = st.sampled_from((0, 1))
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), sides, _text),
            st.tuples(st.just("remove"), sides, st.integers(0, 32)),
            st.tuples(st.just("update"), sides, st.integers(0, 32), _text),
            st.tuples(st.just("checkpoint"), sides),
        ),
        min_size=2,
        max_size=14,
    )


@settings(max_examples=20, deadline=None)
@given(operations=_operations(), num_shards=st.sampled_from((1, 2, 3)))
def test_adopted_equals_from_zero_for_any_stream(operations, num_shards):
    """For any op stream with checkpoints interleaved, an adopting replica
    at the final offset matches a from-zero replica — across every shard
    of every sampled shard count."""
    tmp = Path(tempfile.mkdtemp())
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp)
    try:
        live = ([], [])
        serial = 0
        checkpoints = 1  # session init writes snapshot 1
        for operation in operations:
            kind, side = operation[0], operation[1]
            if kind == "add":
                serial += 1
                entity_id = f"{'ab'[side]}{serial}"
                session.insert(make_profile(entity_id, text=operation[2]), side=side)
                live[side].append(entity_id)
            elif kind == "remove":
                if not live[side]:
                    continue
                entity_id = live[side][operation[2] % len(live[side])]
                session.remove(entity_id, side=side)
                live[side].remove(entity_id)
            elif kind == "update":
                if not live[side]:
                    continue
                entity_id = live[side][operation[2] % len(live[side])]
                session.update(make_profile(entity_id, text=operation[3]), side=side)
            else:
                session.checkpoint()
                checkpoints += 1
        offset = session.wal.log_offset
        scan = session.wal.scan()
        total_records = len(scan.records)
        wal = WriteAheadLog(tmp)
        for shard in range(num_shards):
            adopted = ShardReplica(tmp, shard, num_shards)
            adopted.catch_up(offset)
            from_zero = ShardReplica(
                tmp, shard, num_shards, adopt_floor=NEVER_ADOPT
            )
            from_zero.catch_up(offset)
            assert adopted.adopted_sequence is not None
            assert from_zero.follower.records_delivered == total_records
            # O(tail) accounting: the snapshot's bytes were skipped, and
            # exactly the records past its embedded offset were parsed
            snap_state = wal.load_snapshot(
                tmp / f"snapshot-{adopted.adopted_sequence:06d}.snap"
            )
            snap_offset = int(snap_state["log_offset"])
            assert adopted.follower.bytes_skipped == snap_offset - len(LOG_MAGIC)
            assert adopted.follower.records_delivered == sum(
                1 for record in scan.records if record.start >= snap_offset
            )
            _assert_replicas_identical(adopted, from_zero)
            adopted.close()
            from_zero.close()
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)
