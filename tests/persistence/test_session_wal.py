"""Deterministic tests for WAL-backed :class:`MatchingSession` recovery.

A session opened with ``wal_path=`` journals every mutation and snapshots
its full state (frozen model, online-policy aggregates, insert-time
probabilities).  Recovery must resume with the identical exact answer and
identical online admission thresholds, then keep streaming in lock-step
with the uninterrupted session.
"""

import ast
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.incremental.session
import repro.persistence.snapshot
from reference import make_frozen_model
from repro.datamodel import make_profile
from repro.incremental import FrozenModel, MatchingSession, MutableBlockIndex
from repro.persistence import (
    LOG_MAGIC,
    META_FORMAT,
    SNAPSHOT_FORMAT,
    StateFormatError,
    WriteAheadLog,
    canonical_pair_keys,
    encode_record,
    recover_index,
)
from repro.persistence.snapshot import joined_pair_keys, snapshot_state
from repro.serve.workers import ShardReplica

FEATURE_SET = ("CBS", "JS", "RS")


def _frozen_model() -> FrozenModel:
    return make_frozen_model(FEATURE_SET)


def _profiles(n, prefix):
    return [
        make_profile(f"{prefix}{i}", t=f"tok{i % 5} tok{i % 3} common w{i % 7}")
        for i in range(n)
    ]


def _live_probabilities(session):
    """Insert-time probabilities of the live pairs, sorted by canonical key."""
    raw, probabilities = session.insert_time_probabilities()
    keys = canonical_pair_keys(session.index, raw)
    order = np.argsort(keys)
    return keys[order], probabilities[order]


def _stream(session):
    profiles = _profiles(14, "a")
    session.insert_bulk(profiles[:6])
    for profile in profiles[6:12]:
        session.insert(profile)
    session.remove("a3")
    session.update(make_profile("a4", t="tok9 common"))
    session.insert(profiles[12])
    session.insert(profiles[13])


@pytest.mark.parametrize("policy", ["wep", "topk"])
def test_recovered_session_resumes_identically(tmp_path, policy):
    session = MatchingSession(
        _frozen_model(),
        online=policy,
        top_k=10,
        wal_path=tmp_path / "wal",
        snapshot_every=6,
    )
    _stream(session)
    expected = session.retained().retained_id_set()
    threshold = session.online.threshold
    session.close()

    recovered = MatchingSession.recover(tmp_path / "wal")
    assert recovered.retained().retained_id_set() == expected
    assert recovered.online.threshold == pytest.approx(threshold, abs=1e-12)
    keys_live, probs_live = _live_probabilities(session)
    keys_rec, probs_rec = _live_probabilities(recovered)
    assert np.array_equal(keys_live, keys_rec)
    assert np.allclose(probs_live, probs_rec)

    # both sessions keep streaming in lock-step
    for profile in _profiles(4, "b"):
        session.insert(profile)
        recovered.insert(profile)
    session.remove("b1")
    recovered.remove("b1")
    assert recovered.retained().retained_id_set() == session.retained().retained_id_set()
    assert recovered.online.threshold == pytest.approx(
        session.online.threshold, abs=1e-12
    )
    recovered.close()

    # the resumed appends are durable: recover a second time
    again = MatchingSession.recover(tmp_path / "wal")
    assert again.retained().retained_id_set() == session.retained().retained_id_set()


def test_recovery_survives_a_torn_tail(tmp_path):
    session = MatchingSession(
        _frozen_model(), online="wep", wal_path=tmp_path / "wal"
    )
    for profile in _profiles(8, "a"):
        session.insert(profile)
    before_last = session.retained().retained_id_set()
    session.insert(make_profile("late", t="tok1 common"))
    session.close()

    log = tmp_path / "wal" / "wal.log"
    log.write_bytes(log.read_bytes()[:-9])  # tear the final insert's record

    recovered = MatchingSession.recover(tmp_path / "wal")
    assert not recovered.index.has_entity("late")
    assert recovered.retained().retained_id_set() == before_last


def test_explicit_and_automatic_checkpoints(tmp_path):
    session = MatchingSession(
        _frozen_model(), wal_path=tmp_path / "wal", snapshot_every=3
    )
    # construction writes the bootstrap snapshot immediately
    assert len(session.wal.snapshot_paths()) == 1
    for profile in _profiles(7, "a"):
        session.insert(profile)
    assert len(session.wal.snapshot_paths()) == 3  # bootstrap + 2 automatic
    session.checkpoint()
    assert len(session.wal.snapshot_paths()) == 4
    session.close()
    recovered = MatchingSession.recover(tmp_path / "wal")
    assert recovered.retained().retained_id_set() == session.retained().retained_id_set()


def test_fresh_session_refuses_a_used_wal_directory(tmp_path):
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
    session.insert(make_profile("a0", t="tok common"))
    session.close()
    with pytest.raises(ValueError, match="MatchingSession.recover"):
        MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")


def test_checkpoint_requires_a_wal():
    session = MatchingSession(_frozen_model())
    with pytest.raises(RuntimeError, match="wal_path"):
        session.checkpoint()


def test_bare_index_wal_rejects_session_recovery(tmp_path):
    from repro.incremental import MutableBlockIndex
    from repro.persistence import WriteAheadLog

    index = MutableBlockIndex()
    wal = WriteAheadLog(tmp_path / "wal")
    index.attach_wal(wal)
    index.add_entity(make_profile("e0", t="apple phone"))
    wal.close()
    with pytest.raises(ValueError, match="recover_index"):
        MatchingSession.recover(tmp_path / "wal")


def test_a_session_written_by_the_pr18_tree_is_refused_by_name(tmp_path):
    """Cross-version recovery is a refusal: snapshot format 1 was a pickle.

    ``tests/data/session_wal_pr18`` (recipe in its README) holds two format-1
    snapshots written at commit 7d43aa0.  This tree never unpickles a file
    from a WAL directory, so recovering it names the format it will not read
    — the one-way migration: keep running it on a tree that reads format 1,
    or rebuild the session from its source records.
    """
    fixture = Path(__file__).resolve().parent.parent / "data" / "session_wal_pr18"
    wal = tmp_path / "wal"  # never touch the fixture itself
    shutil.copytree(fixture, wal)
    (wal / "README.md").unlink()
    before = {path.name: path.read_bytes() for path in wal.iterdir()}

    message = "the snapshot holds state format 1 .*this version reads format 2 only"
    with pytest.raises(StateFormatError, match=message):
        MatchingSession.recover(wal)
    with pytest.raises(StateFormatError, match=message):
        recover_index(wal)
    # refused before anything was truncated or written
    assert {path.name: path.read_bytes() for path in wal.iterdir()} == before


@pytest.mark.parametrize("byte", [60, len(LOG_MAGIC)], ids=["payload", "length-field"])
def test_damage_in_front_of_the_snapshot_loses_nothing_behind_it(tmp_path, byte):
    """The snapshot vouches for the log up to its offset; recovery reads the
    tail from there.  A flipped byte in a record *before* the snapshot used to
    stop the whole-log scan in front of it: the five acked inserts behind the
    checkpoint were dropped and the log truncated to the damaged record."""
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
    for profile in _profiles(20, "a"):
        session.insert(profile)
    session.checkpoint()
    for profile in _profiles(5, "b"):
        session.insert(profile)
    expected = session.retained().retained_id_set()
    session.close()

    log = tmp_path / "wal" / "wal.log"
    data = bytearray(log.read_bytes())
    data[byte] ^= 0xFF
    log.write_bytes(bytes(data))

    recovered = MatchingSession.recover(tmp_path / "wal")
    try:
        assert recovered.index.num_entities == 25
        assert recovered.retained().retained_id_set() == expected
    finally:
        recovered.close()
    assert log.stat().st_size == len(data)  # nothing was truncated


def test_a_snapshot_in_another_state_format_is_refused_by_name(tmp_path):
    """``"format"`` is read: a newer writer's snapshot is not half-understood."""
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
    for profile in _profiles(4, "a"):
        session.insert(profile)
    newest = session.checkpoint()
    session.close()
    wal = WriteAheadLog(tmp_path / "wal")
    wal.write_snapshot(dict(wal.load_snapshot(newest), format=SNAPSHOT_FORMAT + 1))

    message = (
        f"the snapshot holds state format {SNAPSHOT_FORMAT + 1}; "
        f"this version reads format {SNAPSHOT_FORMAT} only"
    )
    with pytest.raises(StateFormatError, match=message):
        MatchingSession.recover(tmp_path / "wal")
    with pytest.raises(StateFormatError, match=message):
        recover_index(tmp_path / "wal")


def test_a_top_k_key_that_is_not_a_live_pair_is_refused_by_name(tmp_path):
    """A restored top-K item is a pair key, checked against the snapshot's
    live pairs — never ranked onto a neighbour's pair, whose later retraction
    would then evict the wrong one."""
    session = MatchingSession(_frozen_model(), online="topk", top_k=4, wal_path=tmp_path / "wal")
    _stream(session)
    newest = session.checkpoint()
    session.close()
    wal = WriteAheadLog(tmp_path / "wal")
    state = wal.load_snapshot(newest)
    stored = state["session"]
    live = set(joined_pair_keys(stored["pair_keys"]).tolist())
    # between two live keys: a rank lookup would land on a live neighbour
    foreign = next(key + 1 for key in sorted(live) if key + 1 not in live)
    assert foreign < max(live)
    policy_state = stored["policy_state"]
    policy_state = dict(
        policy_state,
        weights=np.append(policy_state["weights"], 0.99),
        keys=np.append(policy_state["keys"], foreign),
    )
    wal.write_snapshot(dict(state, session=dict(stored, policy_state=policy_state)))

    with pytest.raises(ValueError, match=f"pair key {foreign}, which is not a live pair"):
        MatchingSession.recover(tmp_path / "wal")


def _bump_meta_format(directory):
    """Rewrite the log's leading ``meta`` record with the next state format
    (same length: every later record keeps its offset)."""
    wal = WriteAheadLog(directory)
    meta = wal.scan(None).records[0]
    assert meta.record["op"] == "meta" and meta.record["format"] == META_FORMAT
    data = wal.log_path.read_bytes()
    bumped = encode_record(dict(meta.record, format=META_FORMAT + 1))
    assert len(bumped) == meta.end - meta.start
    wal.log_path.write_bytes(data[: meta.start] + bumped + data[meta.end :])
    return len(data)


def test_a_log_meta_record_in_another_state_format_is_refused_by_name(tmp_path):
    """With no snapshot, the log's ``meta`` record names the index to replay
    into; its ``"format"`` is read as a snapshot's is."""
    index = MutableBlockIndex()
    wal = WriteAheadLog(tmp_path / "wal")
    index.attach_wal(wal)
    index.add_entities(_profiles(4, "a"))
    wal.close()
    assert recover_index(tmp_path / "wal").num_entities == 4
    _bump_meta_format(tmp_path / "wal")

    with pytest.raises(
        StateFormatError,
        match=f"the log meta record holds state format {META_FORMAT + 1}; "
        f"this version reads format {META_FORMAT} only",
    ):
        recover_index(tmp_path / "wal")


@pytest.mark.parametrize("where", ["log meta record", "snapshot"])
def test_a_sharded_topology_is_refused_by_name(tmp_path, where):
    """A directory the removed signature-sharded index wrote — its ``meta``
    record or its snapshot's index section says ``"kind": "sharded"`` — is
    refused by that name before any index is built."""
    wal = WriteAheadLog(tmp_path / "wal")
    if where == "log meta record":
        with wal:
            wal.append_record(
                {
                    "op": "meta",
                    "format": META_FORMAT,
                    "kind": "sharded",
                    "bilateral": False,
                    "num_shards": 2,
                    "name": "sharded-stream",
                }
            )
            wal.append_record({"op": "add", "id": "a0", "side": 0, "sig": ["tok0"], "shards": [1]})
    else:
        index = MutableBlockIndex()
        index.attach_wal(wal)
        index.add_entities(_profiles(4, "a"))
        state = snapshot_state(index, wal.log_offset)
        state["index"].update(kind="sharded", num_shards=2)
        state["slots"] = None
        wal.write_snapshot(state)
        wal.close()

    refusing = mock.patch.object(
        repro.persistence.snapshot,
        "MutableBlockIndex",
        side_effect=AssertionError("an index was built"),
    )
    with refusing, pytest.raises(ValueError, match="unknown index kind 'sharded'"):
        recover_index(tmp_path / "wal")


def test_a_shard_replica_refuses_a_log_meta_record_in_another_format(tmp_path):
    """A replica with no snapshot to adopt replays the log from its ``meta``
    record, and reads that record's format too."""
    index = MutableBlockIndex()
    wal = WriteAheadLog(tmp_path / "wal")
    index.attach_wal(wal)
    index.add_entities(_profiles(4, "a"))
    wal.close()
    end = _bump_meta_format(tmp_path / "wal")

    replica = ShardReplica(tmp_path / "wal", shard=0, num_shards=2)
    try:
        with pytest.raises(StateFormatError, match="the log meta record holds state format"):
            replica.catch_up(end)
    finally:
        replica.close()


def _written_meta_formats(path):
    """The ``"format"`` values of the ``{"op": "meta", ...}`` literals in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Dict):
            fields = {
                key.value: value
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
            }
            op = fields.get("op")
            if isinstance(op, ast.Constant) and op.value == "meta":
                found.append(ast.literal_eval(fields["format"]))
    return found


def test_the_meta_records_written_by_the_indexes_carry_the_state_format():
    """``incremental`` writes the meta record's format as a literal: it cannot
    import :data:`META_FORMAT`, because ``persistence`` imports it."""
    root = Path(repro.incremental.session.__file__).parent
    assert _written_meta_formats(root / "index.py") == [META_FORMAT]
    assert _written_meta_formats(root / "sharded.py") == []
    for path in sorted(root.glob("*.py")):
        module_level = [
            statement
            for statement in ast.parse(path.read_text()).body
            if isinstance(statement, ast.ImportFrom)
            and "persistence" in (statement.module or "")
        ]
        assert not module_level, f"{path.name} imports persistence at module level"
