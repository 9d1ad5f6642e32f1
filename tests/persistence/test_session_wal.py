"""Deterministic tests for WAL-backed :class:`MatchingSession` recovery.

A session opened with ``wal_path=`` journals every mutation and snapshots
its full state (frozen model, online WEP aggregate, insert-time
probabilities).  Recovery must resume with the identical exact answer and
identical online admission thresholds, then keep streaming in lock-step
with the uninterrupted session.
"""

import ast
import json
import re
import shutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.persistence.snapshot
from reference import make_frozen_model
from repro.datamodel import make_profile
from repro.incremental import FrozenModel, MatchingSession, MutableBlockIndex
from repro.persistence import (
    LOG_MAGIC,
    SNAPSHOT_FORMAT,
    StateFormatError,
    WriteAheadLog,
    canonical_pair_keys,
    encode_record,
)
from repro.schema import META_FORMAT, SchemaError
from repro.serve.workers import ShardReplica
from source_tree import ROOT, parse

pytestmark = pytest.mark.equivalence

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


def test_recovered_session_resumes_identically(tmp_path):
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal", snapshot_every=6)
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
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
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


@pytest.mark.parametrize("every", [0, -3])
def test_a_snapshot_interval_below_one_is_refused(tmp_path, every):
    """``snapshot_every=0`` would checkpoint after every mutation."""
    with pytest.raises(ValueError, match=f"snapshot_every must be at least 1, got {every}"):
        MatchingSession(_frozen_model(), wal_path=tmp_path / "wal", snapshot_every=every)
    assert not (tmp_path / "wal").exists()


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
    with pytest.raises(ValueError, match="no session snapshot"):
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
    # refused before anything was truncated or written
    assert {path.name: path.read_bytes() for path in wal.iterdir()} == before


#: two sessions written at commit 51607e8 (recipe in the README beside them)
RECORDED = Path(__file__).resolve().parent.parent / "data" / "session_wal_51607e8"


def _copy_recorded(name, directory):
    """A copy of one of the two parent-written WAL directories (recovery
    truncates and re-attaches the log: never recover the fixture itself)."""
    shutil.copytree(RECORDED / name, directory)
    return directory


def test_a_wep_session_written_by_the_parent_tree_recovers_bit_for_bit(tmp_path):
    """The parent tree's snapshot still names its ``policy`` and a ``top_k``
    budget; recovery ignores the budget and restores the WEP aggregate: the
    retained pairs, their probabilities and the threshold that tree recovered
    (``wep_recovered.json``), bit for bit."""
    expected = json.loads((RECORDED / "wep_recovered.json").read_text())
    session = MatchingSession.recover(_copy_recorded("wep", tmp_path / "wal"))
    try:
        stored = WriteAheadLog(tmp_path / "wal").latest_snapshot()["session"]
        assert stored["policy"] == "wep" and stored["top_k"] == 1000
        answer = session.retained()
        retained = sorted(
            (first, second, float(probability).hex())
            for (first, second), probability in zip(
                answer.retained_ids, answer.probabilities[answer.retained_mask]
            )
        )
        assert retained == [tuple(row) for row in expected["retained"]]
        assert session.online.threshold.hex() == expected["threshold"]
        assert session.num_entities == expected["num_entities"]
        assert session.num_pairs == expected["num_pairs"]
    finally:
        session.close()


def test_a_top_k_session_written_by_the_parent_tree_is_refused_by_name(tmp_path):
    """The top-K online policy is gone: a snapshot that names it is refused,
    naming it, before any index is built and before the log is touched."""
    wal = _copy_recorded("topk", tmp_path / "wal")
    before = {path.name: path.read_bytes() for path in wal.iterdir()}
    refusing = mock.patch.object(
        repro.persistence.snapshot,
        "MutableBlockIndex",
        side_effect=AssertionError("an index was built"),
    )
    with refusing, pytest.raises(ValueError, match="online policy 'topk'"):
        MatchingSession.recover(wal)
    assert {path.name: path.read_bytes() for path in wal.iterdir()} == before


def test_a_session_snapshot_stores_the_wep_aggregate_and_no_policy_choice(tmp_path):
    session = MatchingSession(make_frozen_model(("CBS", "JS", "RS")), wal_path=tmp_path / "wal")
    for serial in range(6):
        session.insert(make_profile(f"e{serial}", t=f"common tok{serial % 2}"))
    session.remove("e1")
    path = session.checkpoint()
    session.close()
    stored = WriteAheadLog(tmp_path / "wal").load_snapshot(path)["session"]
    assert "policy" not in stored and "top_k" not in stored
    assert stored["policy_state"] == session.online.export_state()
    assert set(stored["policy_state"]) == {"valid_sum", "valid_count"}


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


def _rewrite_meta(directory, record=None, **fields):
    """Rewrite the log's leading ``meta`` record as ``record``, or with
    ``fields`` changed (same length: every later record keeps its offset)."""
    wal = WriteAheadLog(directory)
    meta = wal.scan(None).records[0]
    assert meta.record["op"] == "meta" and meta.record["format"] == META_FORMAT
    data = wal.log_path.read_bytes()
    rewritten = encode_record(record or dict(meta.record, **fields))
    assert len(rewritten) == meta.end - meta.start
    wal.log_path.write_bytes(data[: meta.start] + rewritten + data[meta.end :])
    return len(data)


#: what the table says of a ``meta`` record of the next format, at offset 8
_FOREIGN_META = re.escape(
    "the log record at offset 8 is refused: meta record field 'format': "
    f"expected int in [{META_FORMAT}], got {META_FORMAT + 1}"
)


def test_a_sharded_topology_is_refused_by_name(tmp_path):
    """A session snapshot whose index section says ``"kind": "sharded"`` —
    what the removed signature-sharded index wrote — is refused by that name
    before any index is built."""
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
    for profile in _profiles(4, "a"):
        session.insert(profile)
    newest = session.checkpoint()
    session.close()
    wal = WriteAheadLog(tmp_path / "wal")
    state = wal.load_snapshot(newest)
    state["index"] = dict(state["index"], kind="sharded", num_shards=2)
    wal.write_snapshot(dict(state, slots=None))

    refusing = mock.patch.object(
        repro.persistence.snapshot,
        "MutableBlockIndex",
        side_effect=AssertionError("an index was built"),
    )
    with refusing, pytest.raises(ValueError, match="unknown index kind 'sharded'"):
        MatchingSession.recover(tmp_path / "wal")


def test_a_shard_replica_refuses_a_log_meta_record_in_another_format(tmp_path):
    """A replica with no snapshot to adopt replays the log from its ``meta``
    record, and reads that record's format too."""
    index = MutableBlockIndex()
    wal = WriteAheadLog(tmp_path / "wal")
    index.attach_wal(wal)
    for profile in _profiles(4, "a"):
        index.add_entity(profile)
    wal.close()
    end = _rewrite_meta(tmp_path / "wal", format=META_FORMAT + 1)

    replica = ShardReplica(tmp_path / "wal", shard=0, num_shards=2)
    try:
        with pytest.raises(StateFormatError, match=_FOREIGN_META):
            replica.catch_up(end)
    finally:
        replica.close()


def _refused_before_any_index_is_built(wal, error, message):
    """Recovering ``wal`` raises ``error`` matching ``message`` without
    building an index and without touching a byte of the directory."""
    before = {path.name: path.read_bytes() for path in wal.iterdir()}
    refusing = mock.patch.object(
        repro.persistence.snapshot,
        "MutableBlockIndex",
        side_effect=AssertionError("an index was built"),
    )
    with refusing, pytest.raises(error, match=message):
        MatchingSession.recover(wal)
    assert {path.name: path.read_bytes() for path in wal.iterdir()} == before


def _one_insert_session_log(wal):
    session = MatchingSession(_frozen_model(), wal_path=wal)
    session.insert(_profiles(1, "a")[0])
    session.close()
    return wal


_UNJOURNALED = [
    (lambda session: session.insert(make_profile(7, t="tok0 common")), "id"),
    (lambda session: session.insert(make_profile("c", t="tok0 common"), side=True), "side"),
    (lambda session: session.insert_bulk([make_profile(7, t="tok0")]), "entities[0][0]"),
    (lambda session: session.remove("b0", side=True), "side"),
    (lambda session: session.update(make_profile("b0", t="tok1"), side=True), "side"),
]


@pytest.mark.parametrize("journaled", [True, False], ids=["with-wal", "without-wal"])
@pytest.mark.parametrize(
    "mutate, field",
    _UNJOURNALED,
    ids=["insert-number-id", "insert-bool-side", "bulk-number-id", "remove-bool-side", "update-bool-side"],
)
def test_a_mutation_its_record_table_refuses_is_never_journaled(
    tmp_path, journaled, mutate, field
):
    """The index checks a mutation against the table the log's reader
    checks its record against, with a log attached or without: a call the
    log would refuse on recovery (a number id, a bool side) raises by name
    before the index changes or a byte is written, and the directory still
    recovers to the state before it."""
    wal = tmp_path / "wal" if journaled else None
    session = MatchingSession(_frozen_model(), wal_path=wal, bilateral=True)
    session.insert(_profiles(1, "a")[0])
    session.insert(_profiles(1, "b")[0], side=1)
    state = (session.num_entities, session.num_pairs, session.index.epoch)
    offset = session.wal.log_offset if journaled else None
    with pytest.raises(SchemaError, match=re.escape(f"field {field!r}")):
        mutate(session)
    assert (session.num_entities, session.num_pairs, session.index.epoch) == state
    session.close()
    if journaled:
        assert session.wal.log_offset == offset
        recovered = MatchingSession.recover(wal)
        assert recovered.num_entities == 2
        recovered.close()


def test_a_session_log_meta_record_in_another_format_is_refused_by_name(tmp_path):
    """Session recovery reads the log's ``meta`` record, not only the
    snapshot: a log opened by a writer of another format is not replayed."""
    wal = _one_insert_session_log(tmp_path / "wal")
    _rewrite_meta(wal, format=META_FORMAT + 1)
    _refused_before_any_index_is_built(wal, StateFormatError, _FOREIGN_META)


def test_a_session_log_that_does_not_open_with_its_meta_record_is_refused(tmp_path):
    """The positional rule: a first record its table accepts, of another op."""
    wal = _one_insert_session_log(tmp_path / "wal")
    meta = WriteAheadLog(wal).scan(None).records[0]
    padding = meta.end - meta.start - len(encode_record({"id": "", "op": "remove", "side": 0}))
    _rewrite_meta(wal, {"id": "x" * padding, "op": "remove", "side": 0})
    _refused_before_any_index_is_built(
        wal, ValueError, "the log opens with a 'remove' record, not its 'meta' record"
    )


def test_a_session_log_opening_with_an_unknown_op_is_refused_by_its_table(tmp_path):
    wal = _one_insert_session_log(tmp_path / "wal")
    _rewrite_meta(wal, op="mxta")
    _refused_before_any_index_is_built(
        wal, StateFormatError, "the log record at offset 8 is refused: log record field 'op'"
    )


@pytest.mark.parametrize("torn", ["header", "payload"])
def test_a_session_log_torn_inside_its_meta_record_recovers_as_before(tmp_path, torn):
    """No complete first record (the tail a ``sync="batch"`` crash loses)
    is no foreign format: recovery restores the snapshot and journals on."""
    session = MatchingSession(_frozen_model(), wal_path=tmp_path / "wal")
    session.close()
    log = tmp_path / "wal" / "wal.log"
    meta = WriteAheadLog(tmp_path / "wal").scan(None).records[0]
    log.write_bytes(log.read_bytes()[: meta.start + 3 if torn == "header" else meta.end - 1])

    recovered = MatchingSession.recover(tmp_path / "wal")
    assert recovered.index.num_entities == 0
    for profile in _profiles(4, "a"):
        recovered.insert(profile)
    retained = recovered.retained().retained_id_set()
    recovered.close()
    again = MatchingSession.recover(tmp_path / "wal")
    assert again.index.num_entities == 4
    assert again.retained().retained_id_set() == retained
    again.close()


def _written_meta_formats(path):
    """The ``"format"`` values of the ``{"op": "meta", ...}`` literals in
    ``path``, as source text."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Dict):
            fields = {
                key.value: value
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
            }
            op = fields.get("op")
            if isinstance(op, ast.Constant) and op.value == "meta":
                found.append(ast.unparse(fields["format"]))
    return found


def test_the_meta_records_written_by_the_indexes_carry_the_state_format():
    """The writer names :data:`META_FORMAT`, the constant the log's table
    reads, so the two cannot drift."""
    root = ROOT / "incremental"
    assert _written_meta_formats(root / "index.py") == ["META_FORMAT"]
    imports = [
        statement
        for statement in parse(root / "index.py").body
        if isinstance(statement, ast.ImportFrom) and statement.module == "schema"
    ]
    assert "META_FORMAT" in [alias.name for alias in imports[0].names]
    assert _written_meta_formats(root / "sharded.py") == []
    for path in sorted(root.glob("*.py")):
        module_level = [
            statement
            for statement in parse(path).body
            if isinstance(statement, ast.ImportFrom)
            and "persistence" in (statement.module or "")
        ]
        assert not module_level, f"{path.name} imports persistence at module level"
