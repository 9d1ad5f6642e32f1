"""The snapshot container: what is stored, and what a damaged file decodes to.

A snapshot is a tree of JSON values and raw NumPy buffers (no pickle).  These
tests pin the layout's contract: the index section carries the compacted
state and nothing a load recomputes; a container cut at any byte of its
fixed header, JSON header and table (and at evenly spaced body offsets),
flipped in any region, or carrying a hostile table entry decodes to ``None``
— never an exception, never a partial array — and recovery then falls back
to the previous snapshot with the uninterrupted run's answer.  A format-1
(pickled) snapshot is refused by name before a byte of it is unpickled.
"""

import json
import os
import pickle
import re
import shutil
import stat
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from reference import make_frozen_model
from repro.core.features import FeatureVectorGenerator
from repro.core.pruning import SupervisedBLAST
from repro.datamodel import make_profile
from repro.incremental import MatchingSession, MutableBlockIndex
from repro.ml import GaussianNB, LinearSVC, LogisticRegression, MinMaxScaler, StandardScaler
from repro.ml.base import FrozenModel
from repro.ml.state import export_model, restore_model, restore_object
from repro.persistence import StateFormatError, WriteAheadLog
from repro.persistence.container import (
    CONTAINER_MAGIC,
    LEGACY_SNAPSHOT_MAGIC,
    SNAPSHOT_FORMAT,
    decode_container,
    encode_container,
    pack_strings,
    unpack_strings,
)
from repro.persistence.snapshot import restore_pruning
from repro.serve.workers import ShardReplica

pytestmark = pytest.mark.equivalence

FEATURE_SET = ("CBS", "JS", "RS")
#: magic, CRC32, version, JSON header size
FIXED = struct.Struct("<8sIIQ")


def _profiles(n, prefix):
    return [
        make_profile(f"{prefix}{i}", t=f"tok{i % 5} tok{i % 3} common w{i % 7}")
        for i in range(n)
    ]


def _session_with_two_snapshots(directory, bilateral=False):
    """A journaled session with churn, an older and a newest snapshot, and a
    tail behind both; returns the session (closed) and the two paths."""
    session = MatchingSession(
        make_frozen_model(FEATURE_SET), bilateral=bilateral, wal_path=directory
    )
    session.insert_bulk(_profiles(8, "a"))
    session.remove("a2")
    older = session.checkpoint()
    for profile in _profiles(5, "b"):
        session.insert(profile)
    session.update(make_profile("a4", t="tok9 common"))
    session.remove("b1")
    newest = session.checkpoint()
    session.insert(make_profile("late", t="tok1 common w3"))
    session.close()
    return session, older, newest


def _regions(data):
    """``(name, start, end)`` of the fixed header, the JSON header (with its
    table) and the body of a container."""
    header_size = FIXED.unpack_from(data)[3]
    header_end = FIXED.size + header_size
    body_start = -(-header_end // 8) * 8
    return [
        ("magic", 0, 8),
        ("crc", 8, 12),
        ("version", 12, 16),
        ("header size", 16, FIXED.size),
        ("json header", FIXED.size, header_end),
        ("body", body_start, len(data)),
    ]


def _reframed(header, body):
    """A container with a valid CRC around an arbitrary header and body."""
    encoded = json.dumps(header, separators=(",", ":")).encode()
    padding = bytes(-(-(FIXED.size + len(encoded)) // 8) * 8 - FIXED.size - len(encoded))
    rest = struct.pack("<IQ", SNAPSHOT_FORMAT, len(encoded)) + encoded + padding + body
    return CONTAINER_MAGIC + struct.pack("<I", zlib.crc32(rest)) + rest


def _split(data):
    """The JSON header and the body of an intact container."""
    header_size = FIXED.unpack_from(data)[3]
    header = json.loads(data[FIXED.size : FIXED.size + header_size])
    return header, data[-(-(FIXED.size + header_size) // 8) * 8 :]


class TestLayout:
    def test_round_trip_of_a_state_tree(self):
        state = {
            "format": SNAPSHOT_FORMAT,
            "name": "x",
            "nested": {"ints": np.arange(5, dtype=np.int64), "none": None, "flag": True},
            "floats": np.linspace(0.0, 1.0, 7),
            "bytes": np.frombuffer(b"abc", dtype=np.uint8),
            "grid": np.arange(6, dtype=np.uint32).reshape(2, 3),
        }
        decoded = decode_container(b"".join(bytes(buffer) for buffer in encode_container(state)))
        assert decoded.keys() == state.keys()
        for path in (("nested", "ints"), ("floats",), ("bytes",), ("grid",)):
            ours, theirs = decoded, state
            for key in path:
                ours, theirs = ours[key], theirs[key]
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
            assert not ours.flags.writeable
        assert decoded["nested"]["none"] is None and decoded["nested"]["flag"] is True

    def test_only_whitelisted_dtypes_are_written(self):
        with pytest.raises(ValueError, match="which no container holds"):
            encode_container({"format": SNAPSHOT_FORMAT, "x": np.array(["a"], dtype=object)})
        with pytest.raises(ValueError, match="which no container holds"):
            encode_container({"format": SNAPSHOT_FORMAT, "x": np.zeros(2, dtype=">f8")})
        with pytest.raises(ValueError, match="which no container holds"):
            encode_container({"format": SNAPSHOT_FORMAT, "x": np.zeros(2, dtype=bool)})

    @pytest.mark.parametrize(
        "key", [7, ("a", "b"), "a/b", "/"], ids=["int", "tuple", "separator", "separator-alone"]
    )
    def test_a_key_that_is_not_a_plain_string_is_refused(self, key):
        """A state key becomes one segment of an array path: a key that is no
        string, or that holds the path separator, is refused by name, at any
        depth."""
        message = f"snapshot state key {re.escape(repr(key))} is not a plain string"
        with pytest.raises(ValueError, match=message):
            encode_container({"format": SNAPSHOT_FORMAT, key: np.zeros(2)})
        with pytest.raises(ValueError, match=message):
            encode_container({"format": SNAPSHOT_FORMAT, "index": {"ok": 1, key: 2}})

    def test_a_string_table_round_trips(self):
        strings = ["", "apple", "é中", "", "x/y"]
        assert unpack_strings(pack_strings(strings)) == strings
        assert unpack_strings(pack_strings([])) == []

    @pytest.mark.parametrize(
        "ends",
        [
            pytest.param([3, 2, 5], id="decreasing"),
            pytest.param([-1, 5], id="negative"),
            pytest.param([2, 6], id="overrunning"),
            pytest.param([2, 4], id="short-of-the-text"),
            pytest.param([[2, 5]], id="not-one-dimensional"),
        ],
    )
    def test_ends_that_do_not_partition_the_text_are_refused(self, ends):
        packed = pack_strings(["ab", "cde"])
        assert packed["ends"].tolist() == [2, 5]
        packed["ends"] = np.array(ends, dtype=np.int64)
        with pytest.raises(
            ValueError, match="^a snapshot string table does not partition its text$"
        ):
            unpack_strings(packed)

    def test_the_index_section_stores_nothing_a_load_recomputes(self, tmp_path):
        _, _, newest = _session_with_two_snapshots(tmp_path / "wal", bilateral=True)
        header, _ = _split(newest.read_bytes())
        index_arrays = sorted(
            path.split("/", 1)[1] for path, *_ in header["arrays"] if path.startswith("index/")
        )
        assert index_arrays == [
            "block_keys/ends", "block_keys/text", "csr_indices", "csr_indptr", "degrees",
            "entity_ids/ends", "entity_ids/text",
        ]
        assert header["state"]["index"]["side_counts"] == [11, 0]

    def test_the_recovered_index_is_the_writers_compacted_state(self, tmp_path):
        """No float sum is stored, yet the recovered index reads like the
        writer bit for bit: its rows are the writer's live rows, its blocks
        keep their relative order, so every statistic derived from them is
        added in the same order."""
        session = MatchingSession(
            make_frozen_model(FEATURE_SET), bilateral=True, wal_path=tmp_path / "wal"
        )
        for serial in range(30):
            session.insert(
                make_profile(f"e{serial}", t=f"w{serial % 4} x{serial % 7} common"),
                side=serial % 2,
            )
        for serial in range(0, 30, 4):
            session.remove(f"e{serial}", side=serial % 2)
        session.checkpoint()
        session.close()
        resumed = MatchingSession.recover(tmp_path / "wal")
        resumed.close()
        index, recovered = session.index, resumed.index
        live = np.argsort(index.canonical_node_ids())[-index.num_entities :]
        ours, theirs = recovered.statistics(), index.statistics()
        for name in ("blocks_per_entity", "entity_cardinality", "entity_inv_cardinality",
                     "entity_inv_size"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)[live]), name
        assert np.array_equal(recovered._degrees.view(), index._degrees.view()[live])
        assert recovered.num_slots == recovered.num_entities == index.num_entities
        assert recovered.num_pairs == index.num_pairs
        assert ours.block_totals() == theirs.block_totals()
        assert (recovered.num_nonempty_blocks, recovered.total_cardinality) == (
            index.num_nonempty_blocks, index.total_cardinality
        )


class TestDamage:
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("wal")
        session, older, newest = _session_with_two_snapshots(directory)
        # the uninterrupted run's answer
        return directory, older, newest, session.retained().retained_id_set()

    def _recovers_from_the_older_snapshot(self, written, damaged, tmp_path):
        directory, older, newest, answer = written
        copy = _copy(directory, tmp_path / "copy")
        (copy / newest.name).write_bytes(damaged)
        assert WriteAheadLog(copy).latest_snapshot()["log_offset"] == (
            WriteAheadLog(directory).load_snapshot(older)["log_offset"]
        )
        recovered = MatchingSession.recover(copy)
        try:
            assert recovered.retained().retained_id_set() == answer
        finally:
            recovered.close()

    def test_every_cut_decodes_to_none(self, written):
        data = written[2].read_bytes()
        regions = dict((name, (start, end)) for name, start, end in _regions(data))
        body_start, end = regions["body"]
        cuts = list(range(0, regions["json header"][1] + 1))
        cuts += np.linspace(body_start, end - 1, 64).astype(int).tolist()
        for cut in cuts:
            assert decode_container(data[:cut]) is None, cut

    def test_one_flipped_byte_in_any_region_decodes_to_none(self, written, tmp_path):
        data = written[2].read_bytes()
        for name, start, end in _regions(data):
            for position in (start, (start + end - 1) // 2, end - 1):
                flipped = bytearray(data)
                flipped[position] ^= 0x5A
                assert decode_container(bytes(flipped)) is None, (name, position)
        middle = bytearray(data)
        middle[len(data) // 2] ^= 0x5A
        self._recovers_from_the_older_snapshot(written, bytes(middle), tmp_path)

    def test_a_torn_newest_snapshot_falls_back_to_the_older_one(self, written, tmp_path):
        data = written[2].read_bytes()
        self._recovers_from_the_older_snapshot(written, data[: len(data) // 3], tmp_path)

    @pytest.mark.parametrize(
        "hostile",
        [
            lambda entry, size: [entry[0], "|O", entry[2], entry[3]],
            lambda entry, size: [entry[0], entry[1], entry[2], -8],
            lambda entry, size: [entry[0], entry[1], entry[2], size + 8],
            lambda entry, size: [entry[0], entry[1], [2**40, 2**40], entry[3]],
            lambda entry, size: [entry[0], entry[1], [-1], entry[3]],
            lambda entry, size: [entry[0], entry[1], entry[2], entry[3] + 3],
            lambda entry, size: [entry[0], "<f4", entry[2], entry[3]],
        ],
        ids=["object-dtype", "negative-offset", "offset-past-the-file",
             "overflowing-shape", "negative-extent", "unaligned-offset", "foreign-dtype"],
    )
    def test_a_hostile_table_entry_decodes_to_none(self, written, tmp_path, hostile):
        header, body = _split(written[2].read_bytes())
        assert decode_container(_reframed(header, body)) is not None  # the frame is right
        table = header["arrays"]
        table[-1] = hostile(table[-1], len(body))
        damaged = _reframed(header, body)
        assert decode_container(damaged) is None
        self._recovers_from_the_older_snapshot(written, damaged, tmp_path)


def _copy(directory, target):
    shutil.copytree(directory, target)
    return Path(target)


class _Sentinel:
    """Unpickling this touches a file: proof that a loader ran the payload."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))


def test_a_format_1_snapshot_is_refused_before_it_is_unpickled(tmp_path):
    """A pickled snapshot is code: loading it must not run it.  Both loaders
    — session recovery and replica adoption — refuse it by name, and the
    payload's side effect never happens."""
    directory = tmp_path / "wal"
    session = MatchingSession(make_frozen_model(FEATURE_SET), wal_path=directory)
    for profile in _profiles(6, "a"):
        session.insert(profile)
    end = session.wal.log_offset
    session.close()
    sentinel = tmp_path / "sentinel"
    payload = pickle.dumps({"format": 1, "log_offset": end, "trap": _Sentinel(sentinel)})
    legacy = directory / "snapshot-000009.snap"
    legacy.write_bytes(
        LEGACY_SNAPSHOT_MAGIC + struct.pack("<QI", len(payload), zlib.crc32(payload)) + payload
    )

    refusal = "the snapshot holds state format 1"
    with pytest.raises(StateFormatError, match=refusal):
        MatchingSession.recover(directory)
    replica = ShardReplica(directory, shard=0, num_shards=2)
    try:
        with pytest.raises(StateFormatError, match=refusal):
            replica.catch_up(end)
    finally:
        replica.close()
    assert not sentinel.exists()


def test_a_fresh_log_fsyncs_its_directory_before_the_first_ack(tmp_path, monkeypatch):
    """Creating ``wal.log`` adds a directory entry; until the directory is
    fsynced a crash may drop the file with every record it acknowledged."""
    synced = []
    real_fsync = os.fsync

    def spy(descriptor):
        synced.append(stat.S_ISDIR(os.fstat(descriptor).st_mode))
        real_fsync(descriptor)

    monkeypatch.setattr(os, "fsync", spy)
    index = MutableBlockIndex()
    index.attach_wal(WriteAheadLog(tmp_path / "wal"))
    index.add_entity(make_profile("e0", t="apple phone"))
    assert any(synced), "no directory fsync before the first acknowledged record"
    index._wal.close()


class TestRegistries:
    def test_unknown_names_are_refused_by_name(self):
        model = {"class": "Evil", "parameters": {}, "fitted": {}}
        with pytest.raises(ValueError, match="class 'Evil'"):
            restore_object(model)
        with pytest.raises(ValueError, match="class 'EvilScaler'"):
            restore_model(
                {
                    "classifier": {"class": "GaussianNB", "parameters": {"var_smoothing": 1e-9},
                                   "fitted": {"class_prior_": None, "theta_": None, "var_": None}},
                    "scaler": {"class": "EvilScaler", "parameters": {}, "fitted": {}},
                    "feature_set": ["CBS"],
                }
            )
        with pytest.raises(ValueError, match="pruning algorithm 'Evil'"):
            restore_pruning({"name": "Evil", "parameters": {}})

    def test_custom_instances_are_not_checkpointable(self, tmp_path):
        class TunedBLAST(SupervisedBLAST):
            pass

        with pytest.raises(ValueError, match="TunedBLAST"):
            MatchingSession(
                make_frozen_model(FEATURE_SET), pruning=TunedBLAST(), wal_path=tmp_path / "a"
            )

    def test_a_trained_model_round_trips_bit_for_bit(self):
        rng = np.random.default_rng(5)
        features = rng.random((40, 3))
        labels = (features.sum(axis=1) > 1.5).astype(int)
        for classifier in (LogisticRegression(), LinearSVC(epochs=3), GaussianNB()):
            for scaler in (None, StandardScaler(), MinMaxScaler()):
                scaled = features if scaler is None else scaler.fit_transform(features)
                model = FrozenModel(classifier.fit(scaled, labels), scaler, ("a", "b", "c"))
                state = dict(export_model(model), format=SNAPSHOT_FORMAT)
                decoded = decode_container(
                    b"".join(bytes(buffer) for buffer in encode_container(state))
                )
                restored = restore_model(decoded)
                assert type(restored.classifier) is type(classifier)
                assert np.array_equal(restored.score(features), model.score(features))


def test_a_recovered_session_scores_every_pair_as_the_writer_does(tmp_path):
    """No float sum is carried: the recovered answer's probabilities, derived
    from the rows, equal the writer's bit for bit under an unrounded
    classifier."""
    width = len(FeatureVectorGenerator(FEATURE_SET).columns)
    rng = np.random.default_rng(3)
    features = rng.random((60, width))
    classifier = LogisticRegression().fit(features, (features.sum(axis=1) > width / 2).astype(int))
    session = MatchingSession(
        FrozenModel(classifier, None, FEATURE_SET), bilateral=True, wal_path=tmp_path / "wal"
    )
    for serial in range(40):
        session.insert(
            make_profile(f"e{serial}", t=f"w{serial % 5} x{serial % 7} y{serial % 3} common"),
            side=serial % 2,
        )
    for serial in range(0, 40, 3):
        session.remove(f"e{serial}", side=serial % 2)
    session.checkpoint()
    expected = session.retained()
    session.close()

    recovered = MatchingSession.recover(tmp_path / "wal")
    try:
        answer = recovered.retained()
        assert np.array_equal(answer.candidates.canonical.left, expected.candidates.canonical.left)
        assert np.array_equal(answer.candidates.canonical.right, expected.candidates.canonical.right)
        assert np.array_equal(answer.probabilities, expected.probabilities)
        assert answer.retained_id_set() == expected.retained_id_set()
    finally:
        recovered.close()


def _rewritten(path, edit):
    """Re-encode the snapshot at ``path`` after ``edit`` changed its index
    section in place."""
    state = decode_container(path.read_bytes())
    edit(state["index"])
    path.write_bytes(b"".join(bytes(memoryview(buffer)) for buffer in encode_container(state)))


def test_a_snapshot_that_still_stores_the_float_sums_recovers(tmp_path):
    """Snapshots of this container format written before the per-entity sums
    were derived store ``inv_cardinality_sums`` / ``inv_size_sums`` beside
    ``degrees``.  Adoption reads its fields by name, so those two are ignored:
    the session recovers to the uninterrupted one's answer and scores its next
    insert bit for bit as the uninterrupted one does."""
    width = len(FeatureVectorGenerator(FEATURE_SET).columns)
    features = np.random.default_rng(5).random((60, width))
    classifier = LogisticRegression().fit(features, (features.sum(axis=1) > width / 2).astype(int))
    session = MatchingSession(
        FrozenModel(classifier, None, FEATURE_SET), bilateral=True, wal_path=tmp_path / "wal"
    )
    try:
        for serial in range(30):
            session.insert(
                make_profile(f"e{serial}", t=f"w{serial % 5} x{serial % 4} common"),
                side=serial % 2,
            )
        for serial in range(0, 30, 4):
            session.remove(f"e{serial}", side=serial % 2)
        snapshot = session.checkpoint()
        legacy = _copy(tmp_path / "wal", tmp_path / "legacy")
        live = session.index.num_entities
        rng = np.random.default_rng(0)
        _rewritten(
            legacy / snapshot.name,
            lambda index: index.update(
                inv_cardinality_sums=rng.random(live), inv_size_sums=rng.random(live)
            ),
        )
        assert "inv_size_sums" in WriteAheadLog(legacy).latest_snapshot()["index"]
        expected = session.retained()
        recovered = MatchingSession.recover(legacy)
        try:
            answer = recovered.retained()
            assert np.array_equal(answer.probabilities, expected.probabilities)
            assert answer.retained_id_set() == expected.retained_id_set()
            late = make_profile("late", t="w1 x2 common")
            ours, theirs = recovered.insert(late, side=1), session.insert(late, side=1)
            assert ours.counterpart_ids == theirs.counterpart_ids
            assert np.array_equal(ours.probabilities, theirs.probabilities)
        finally:
            recovered.close()
    finally:
        session.close()


def _plus(positions):
    """Add ``positions``' values to the degrees at those indices."""

    def forge(degrees):
        degrees = degrees.copy()
        for index, value in positions.items():
            degrees[index] += value
        return degrees

    return forge


@pytest.mark.parametrize(
    "forge",
    [
        # each breaks one property of a pair set's degrees and keeps the others
        pytest.param(lambda degrees: np.where(np.arange(degrees.size) == 0, -degrees, degrees),
                     id="negative"),
        pytest.param(_plus({0: 0.5, 1: 1.5}), id="fractional"),
        pytest.param(_plus({0: 1.0}), id="odd-total"),
        pytest.param(_plus({0: 20.0}), id="more-than-the-other-entities"),
        pytest.param(_plus({0: np.inf}), id="infinite"),
        pytest.param(_plus({0: np.nan}), id="nan"),
    ],
)
def test_a_snapshot_whose_degrees_are_no_pair_set_is_refused(tmp_path, forge):
    """``degrees`` is the one per-entity array a snapshot stores: LCP and the
    live pair count are read off it.  Values no pair set has are refused by
    name, like every other inconsistent compacted state."""
    session = MatchingSession(make_frozen_model(FEATURE_SET), wal_path=tmp_path / "wal")
    for serial in range(10):
        session.insert(make_profile(f"e{serial}", t=f"w{serial % 3}"))
    snapshot = session.checkpoint()
    session.close()
    held = session.index._degrees.view()
    assert held.min() > 0 and held.max() < 10 - 1.5 and held.sum() % 2 == 0
    forged = _copy(tmp_path / "wal", tmp_path / "forged")
    recovered = MatchingSession.recover(tmp_path / "wal")
    recovered.close()
    assert recovered.num_pairs == session.num_pairs

    def edit(section):
        section["degrees"] = forge(np.asarray(section["degrees"]))

    _rewritten(forged / snapshot.name, edit)
    with pytest.raises(ValueError, match="degrees"):
        MatchingSession.recover(forged)


def _short_row_pointers(section):
    section["csr_indptr"] = np.asarray(section["csr_indptr"])[:-1]


def _block_past_the_key_table(section):
    indices = np.array(section["csr_indices"])
    indices[-1] = len(section["block_keys"]["ends"])  # the packed keys' count
    section["csr_indices"] = indices


def _two_block_ids_swapped(section):
    indptr, indices = np.asarray(section["csr_indptr"]), np.array(section["csr_indices"])
    row = int(np.flatnonzero(np.diff(indptr) >= 2)[0])
    start = int(indptr[row])
    indices[[start, start + 1]] = indices[[start + 1, start]]
    section["csr_indices"] = indices


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(_short_row_pointers, "CSR row pointers do not fit its rows",
                     id="indptr-one-row-short"),
        pytest.param(_block_past_the_key_table, "CSR names a block outside its key table",
                     id="block-id-past-the-key-table"),
        pytest.param(_two_block_ids_swapped, "CSR row lists its blocks out of order",
                     id="block-ids-swapped"),
    ],
)
def test_a_snapshot_whose_csr_does_not_fit_is_refused(tmp_path, edit, message):
    """The compacted CSR is what recovery and replica adoption rebuild every
    row from: row pointers that miss a row, a block id past the key table and
    a row whose block ids are out of order are each refused by name."""
    session = MatchingSession(make_frozen_model(FEATURE_SET), wal_path=tmp_path / "wal")
    for serial in range(10):
        session.insert(make_profile(f"e{serial}", t=f"w{serial % 3} x{serial % 2}"))
    snapshot = session.checkpoint()
    session.close()
    forged = _copy(tmp_path / "wal", tmp_path / "forged")
    recovered = MatchingSession.recover(tmp_path / "wal")
    recovered.close()
    assert recovered.num_pairs == session.num_pairs
    _rewritten(forged / snapshot.name, edit)
    with pytest.raises(ValueError, match=f"^a compacted state's {message}$"):
        MatchingSession.recover(forged)
