"""Property test: every pinned-offset read equals the canonical view.

Hypothesis generates random operation sequences (single inserts, bulk
loads, removals, in-place updates, both sides).  The sequence is journaled
through a WAL-backed :class:`MatchingSession`, and after *every* operation
the WAL offset is pinned together with the session's canonical retained set
at that moment.  Then shard replicas — created only after the full stream
is on disk, so later records are always present behind each pinned offset —
replay to each pin in turn, and the merged pinned view's ``match`` answer
must equal the recorded canonical answer exactly: same pairs, same
probabilities.  No torn reads, for every shard count — and, for a model
trained on raw blocks or on the paper's pipeline alike, the canonical answer
is the batch pipeline's on the live entities, cleaned as the model records.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import CLEANINGS, batch_retained_ids, make_frozen_model, reference_retained
from repro.blocking import prepare_blocks
from repro.datamodel import EntityCollection, make_profile
from repro.incremental import IndexState, MatchingSession, MergedIndexView, MutableBlockIndex
from repro.incremental.state import APPENDED, Growable, IndexStateError
from repro.persistence import WriteAheadLog
from repro.persistence.recovery import recover_session
from repro.serve.router import build_pinned_view, match_answer, top_k_answer
from repro.serve.workers import ShardReplica, WalFollowError

pytestmark = pytest.mark.equivalence

_TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
_text = st.lists(st.sampled_from(_TOKENS), min_size=0, max_size=4).map(" ".join)

MODEL = make_frozen_model()
#: one deterministic model per question an answer is held to
MODELS = {name: make_frozen_model(cleaning=cleaning) for name, cleaning in CLEANINGS.items()}


def _operations():
    sides = st.sampled_from((0, 1))
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), sides, _text),
            st.tuples(
                st.just("bulk"), sides, st.lists(_text, min_size=1, max_size=3)
            ),
            st.tuples(st.just("remove"), sides, st.integers(0, 32)),
            st.tuples(st.just("update"), sides, st.integers(0, 32), _text),
        ),
        min_size=1,
        max_size=12,
    )


def _stream(session, operations, arrival=None):
    """Apply a generated op sequence; yield after every applied operation.

    ``arrival``, if given, is kept as the live ``(side, id) -> text`` in
    arrival order (an update re-enters at the end)."""
    live = ([], [])
    arrival = {} if arrival is None else arrival
    serial = 0
    for operation in operations:
        kind, side = operation[0], operation[1]
        if kind == "add":
            serial += 1
            entity_id = f"{'ab'[side]}{serial}"
            session.insert(make_profile(entity_id, text=operation[2]), side=side)
            live[side].append(entity_id)
            arrival[side, entity_id] = operation[2]
        elif kind == "bulk":
            profiles = []
            for text in operation[2]:
                serial += 1
                entity_id = f"{'ab'[side]}{serial}"
                profiles.append(make_profile(entity_id, text=text))
                live[side].append(entity_id)
                arrival[side, entity_id] = text
            session.insert_bulk(profiles, side=side)
        elif kind == "remove":
            if not live[side]:
                continue
            entity_id = live[side][operation[2] % len(live[side])]
            session.remove(entity_id, side=side)
            live[side].remove(entity_id)
            del arrival[side, entity_id]
        else:  # update
            if not live[side]:
                continue
            entity_id = live[side][operation[2] % len(live[side])]
            session.update(make_profile(entity_id, text=operation[3]), side=side)
            del arrival[side, entity_id]
            arrival[side, entity_id] = operation[3]
        yield


def _batch_pairs(arrival, cleaning, pruning):
    """The id pairs the batch pipeline retains on the live entities."""
    first, second = (
        EntityCollection(
            [make_profile(entity_id, text=text) for (of, entity_id), text in arrival.items() if of == side],
            name=f"side{side}",
        )
        for side in (0, 1)
    )
    if not len(first) + len(second):
        return set()
    prepared = prepare_blocks(first, second, **CLEANINGS[cleaning].prepare_arguments())
    ids = [profile.entity_id for profile in (*first, *second)]
    return batch_retained_ids(
        prepared.blocks, prepared.candidates, MODELS[cleaning], pruning, ids.__getitem__
    )


@pytest.mark.parametrize("cleaning", sorted(CLEANINGS))
@settings(max_examples=20, deadline=None)
@given(operations=_operations(), num_shards=st.sampled_from((1, 2, 3)))
def test_every_pinned_offset_equals_canonical(cleaning, operations, num_shards):
    tmp = Path(tempfile.mkdtemp())
    model = MODELS[cleaning]
    session = MatchingSession(model, bilateral=True, wal_path=tmp)
    try:
        pinned = [(session.wal.log_offset, reference_retained(session))]
        arrival = {}
        for _ in _stream(session, operations, arrival):
            reference = reference_retained(session)
            assert {frozenset(row[:2]) for row in reference} == _batch_pairs(
                arrival, cleaning, session.pruning.name
            )
            pinned.append((session.wal.log_offset, reference))
        replicas = [
            ShardReplica(tmp, shard, num_shards) for shard in range(num_shards)
        ]
        try:
            for offset, reference in pinned:
                for replica in replicas:
                    replica.catch_up(offset)
                view = build_pinned_view(
                    [replica.read_state() for replica in replicas],
                    session.index.entity_id,
                )
                answer = match_answer(view, model, session.pruning)
                assert answer["retained"] == reference
        finally:
            for replica in replicas:
                replica.close()
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)


#: the three array fields, from the one schema table
_STUB_ARRAYS = tuple(field for _, field, _, _ in APPENDED)


class _ReadRecorder(dict):
    """A shipped ``arrays`` / ``meta`` dict that records which names are read."""

    def __init__(self, arrays):
        super().__init__(arrays)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _assert_stub_identical(actual: IndexState, oracle: IndexState):
    """The delta-maintained state must hold the same arrays and scalars as a
    rebuilt one — or as the worker's own live index: both are one type."""
    for attribute in _STUB_ARRAYS:
        np.testing.assert_array_equal(
            getattr(actual, attribute).view(),
            getattr(oracle, attribute).view(),
            err_msg=attribute,
        )
        assert (
            getattr(actual, attribute).view().dtype
            == getattr(oracle, attribute).view().dtype
        ), attribute
    assert actual._side_counts == oracle._side_counts
    assert actual.num_blocks == oracle.num_blocks
    # every scalar of the schema; the epoch counts one replica's mutations
    # and is only comparable with the index the state was shipped from
    assert dict(actual._export_meta(), epoch=0) == dict(oracle._export_meta(), epoch=0)


@settings(max_examples=15, deadline=None)
@given(
    operations=_operations(),
    num_shards=st.sampled_from((1, 2, 3)),
    respawn_at=st.integers(0, 64),
)
def test_resident_delta_view_equals_rebuild(operations, num_shards, respawn_at):
    """The delta-maintained resident view is *identical* — same arrays, same
    scalars, same answers — to a from-scratch rebuild *and to the worker's
    own live index* at every pinned offset, including across a forced
    replica respawn mid-stream (which must full-re-ship); and the state
    reads every array and every index scalar a worker ships, full or
    delta."""
    tmp = Path(tempfile.mkdtemp())
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp)
    try:
        pinned = [(session.wal.log_offset, reference_retained(session))]
        for _ in _stream(session, operations):
            pinned.append((session.wal.log_offset, reference_retained(session)))
        resident = [
            ShardReplica(tmp, shard, num_shards) for shard in range(num_shards)
        ]
        oracles = [
            ShardReplica(tmp, shard, num_shards) for shard in range(num_shards)
        ]
        stubs = [None] * num_shards
        bases = [None] * num_shards
        respawn_pin = respawn_at % len(pinned)
        respawn_shard = respawn_at % num_shards
        try:
            for pin, (offset, reference) in enumerate(pinned):
                respawned = pin == respawn_pin and pin > 0
                if respawned:
                    # a fresh replica process: new lineage, no shipped base —
                    # the router-side stub and base survive the swap, and the
                    # lineage mismatch must force a full re-ship
                    resident[respawn_shard].close()
                    resident[respawn_shard] = ShardReplica(
                        tmp, respawn_shard, num_shards
                    )
                for shard in range(num_shards):
                    resident[shard].catch_up(offset)
                    state = resident[shard].read_state(base=bases[shard])
                    meta = _ReadRecorder(state["meta"])
                    if pin == 0 or (respawned and shard == respawn_shard):
                        assert state["kind"] == "full"
                    else:
                        assert state["kind"] == "delta"
                    arrays = _ReadRecorder(state["arrays"])
                    if state["kind"] == "full":
                        stub = IndexState()
                        stub.apply_full(arrays, meta)
                        stubs[shard] = stub
                    else:
                        assert meta["lineage"] == bases[shard]["lineage"]
                        assert int(meta["base_epoch"]) == bases[shard]["epoch"]
                        stubs[shard].apply_delta(arrays, meta)
                    # the converse of array identity: nothing is shipped
                    # that the stub does not read (a delta's value arrays
                    # are skipped only when their id array came empty)
                    shipped = {name for name, array in arrays.items() if array.size}
                    assert shipped <= arrays.read, (state["kind"], shipped - arrays.read)
                    # ... and no index scalar either (``bilateral`` cannot
                    # change under a delta; ``epoch`` is the next read's base)
                    scalars = set(session.index._export_meta())
                    scalars -= {"epoch"} if state["kind"] == "full" else {"epoch", "bilateral"}
                    assert scalars <= meta.read, (state["kind"], scalars - meta.read)
                    bases[shard] = {
                        "lineage": meta["lineage"],
                        "epoch": int(meta["epoch"]),
                    }
                for oracle in oracles:
                    oracle.catch_up(offset)
                oracle_view = build_pinned_view(
                    [oracle.read_state() for oracle in oracles],
                    session.index.entity_id,
                )
                for shard in range(num_shards):
                    _assert_stub_identical(stubs[shard], oracle_view.shards[shard])
                    # ... and with the index it was shipped from, which never
                    # went through apply_full
                    _assert_stub_identical(stubs[shard], resident[shard].index)
                    assert stubs[shard].epoch == resident[shard].index.epoch
                answer = match_answer(
                    MergedIndexView(stubs, session.index.entity_id),
                    MODEL,
                    session.pruning,
                )
                assert answer["retained"] == reference
        finally:
            for replica in resident + oracles:
                replica.close()
    finally:
        session.close()
        shutil.rmtree(tmp, ignore_errors=True)


class _ReadGrowable(Growable):
    """A state's array field that records being read: its contents through
    ``view()`` (what ``[]`` goes through too), its extent through ``len()``."""

    __slots__ = ("_name", "_log")

    def __init__(self, cell, name, log):
        super().__init__(cell.view().dtype, capacity=max(1, len(cell)))
        self.extend(cell.view())
        self._name, self._log = name, log

    def __len__(self):
        self._log.add(self._name)
        return super().__len__()

    def view(self):
        self._log.add(self._name)
        return super().view()


def test_the_answers_read_every_array_a_full_ship_carries(tmp_path):
    """The other half of "nothing is shipped that is not read": ``apply_full``
    copying an array into a field is not a read.  Wrapping the *resulting
    state's* fields, ``match`` + ``top_k`` between them must touch all three
    — an array that no answer consulted would have failed here."""
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
    replicas = [ShardReplica(tmp_path, shard, 2) for shard in range(2)]
    try:
        for i, text in enumerate(("alpha beta", "beta gamma", "alpha gamma zeta")):
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        session.remove("b1", side=1)
        for replica in replicas:
            replica.catch_up(session.wal.log_offset)
        view = build_pinned_view(
            [replica.read_state() for replica in replicas], session.index.entity_id
        )
        reads = [set() for _ in view.shards]
        for shard, log in zip(view.shards, reads):
            for name, field, _, _ in APPENDED:
                setattr(shard, field, _ReadGrowable(getattr(shard, field), name, log))
        answer = match_answer(view, MODEL, session.pruning)
        assert answer["retained"] == reference_retained(session)
        assert top_k_answer(view, MODEL, session.index.node_of("a0", side=0), 3)
        shipped = {name for name, _, _, _ in APPENDED}
        assert reads[0] == shipped
        # node ids, and so the side flags, are identical in every shard: the
        # merged read takes them from shard 0 (each state still stands alone)
        assert reads[1] == shipped - {"sides"}
    finally:
        for replica in replicas:
            replica.close()
        session.close()


def test_stub_refuses_a_state_whose_csr_does_not_add_up(tmp_path):
    """No scalar vouches for the CSR, so the receiver checks it against
    itself: row pointers that end anywhere but at the last membership are a
    drifted ship, refused like a wrong ``num_blocks`` or ``num_slots``."""
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
    replica = ShardReplica(tmp_path, 0, 1)
    try:
        for i, text in enumerate(("alpha beta", "beta gamma")):
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        replica.catch_up(session.wal.log_offset)
        state = replica.read_state()
        stub = IndexState()
        stub.apply_full(state["arrays"], state["meta"])
        assert len(stub.candidate_set()) == session.index.num_pairs > 0
        epoch = stub.epoch
        forged_meta = dict(state["meta"], epoch=epoch + 7)
        for name, forged in (
            ("indices", state["arrays"]["indices"][:-1]),
            ("indptr", state["arrays"]["indptr"][:-1]),
        ):
            with pytest.raises(IndexStateError, match="CSR rows ending at"):
                stub.apply_full(dict(state["arrays"], **{name: forged}), forged_meta)
            # a refused ship never advances the handshake
            assert stub.epoch == epoch
    finally:
        replica.close()
        session.close()


def test_stub_refuses_a_ship_whose_block_count_does_not_cover_its_ids():
    """A receiver holds no per-block array to count its blocks by, so the
    shipped ``num_blocks`` is checked against the block ids: every id that
    arrives lies in ``[0, num_blocks)`` and the count never shrinks under a
    delta.  Each refusal comes before the epoch moves."""
    index = MutableBlockIndex(bilateral=True)
    index._apply_insert("a0", 0, ["alpha", "beta"])
    index._apply_insert("b0", 1, ["alpha"])
    full = index.export_state()
    base = index.enable_delta_tracking()
    index._apply_insert("a1", 0, ["beta", "gamma"])
    delta = index.export_delta(base)
    arrays, meta = delta["arrays"], delta["meta"]
    assert arrays["indices_tail"].max() == meta["num_blocks"] - 1 == 2

    def fresh():
        stub = IndexState()
        stub.apply_full({name: array.copy() for name, array in full["arrays"].items()}, full["meta"])
        return stub

    for forged_arrays, forged_meta in (
        # the full ship's ids reach past the count it reports
        (full["arrays"], dict(full["meta"], num_blocks=1)),
        # a negative block id
        (dict(full["arrays"], indices=full["arrays"]["indices"] - 1), full["meta"]),
    ):
        with pytest.raises(IndexStateError, match="blocks after"):
            IndexState().apply_full(forged_arrays, dict(forged_meta, epoch=99))
    for forged_arrays, forged_meta in (
        # the tail's new block is not counted
        (arrays, dict(meta, num_blocks=2)),
        # the count shrinks below the one held
        (dict(arrays, indices_tail=arrays["indices_tail"][:0], indptr_tail=arrays["indptr_tail"] - 2),
         dict(meta, num_blocks=1)),
    ):
        stub = fresh()
        held = stub.epoch
        with pytest.raises(IndexStateError, match="blocks after"):
            stub.apply_delta(forged_arrays, dict(forged_meta, epoch=held + 5))
        assert stub.epoch == held
    stub = fresh()
    stub.apply_delta(arrays, meta)
    assert (stub.num_blocks, stub.epoch) == (3, index.epoch)


class TestFollowerContract:
    def _session(self, tmp):
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp)
        for i, text in enumerate(("alpha beta", "beta gamma", "alpha gamma")):
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        return session

    def test_replicas_never_rewind(self, tmp_path):
        session = self._session(tmp_path)
        try:
            late = session.wal.log_offset
            replica = ShardReplica(tmp_path, 0, 1)
            replica.catch_up(late)
            with pytest.raises(WalFollowError, match="never rewind"):
                replica.catch_up(late - 1)
            replica.close()
        finally:
            session.close()

    def test_non_boundary_offset_rejected(self, tmp_path):
        session = self._session(tmp_path)
        try:
            replica = ShardReplica(tmp_path, 0, 1)
            with pytest.raises(WalFollowError, match="boundary"):
                replica.catch_up(session.wal.log_offset - 1)
            replica.close()
        finally:
            session.close()

    def test_offset_past_log_end_rejected(self, tmp_path):
        session = self._session(tmp_path)
        try:
            replica = ShardReplica(tmp_path, 0, 1)
            with pytest.raises(WalFollowError):
                replica.catch_up(session.wal.log_offset + 8)
            replica.close()
        finally:
            session.close()

    def test_non_wal_file_rejected(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"not a log at all")
        replica = ShardReplica(tmp_path, 0, 1)
        with pytest.raises(WalFollowError, match="not a repro write-ahead log"):
            replica.catch_up(16)
        replica.close()


class TestSnapshotBootstrap:
    def test_recovered_node_space_requires_snapshot_bootstrap(self, tmp_path):
        """After recovery (which compacts node ids), replicas started as a
        recovered daemon starts them — adopting its floor checkpoint or
        anything newer, never replaying the log from byte zero — live in the
        authority's node space and reproduce its canonical answer exactly."""
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        for i, text in enumerate(
            ("alpha beta", "beta gamma", "alpha gamma", "gamma delta")
        ):
            session.insert(make_profile(f"a{i}", text=text), side=0)
            session.insert(make_profile(f"b{i}", text=text), side=1)
        session.remove("a1", side=0)
        session.checkpoint()
        session.insert(make_profile("a9", text="delta beta"), side=0)
        session.close()

        recovered = recover_session(tmp_path)
        try:
            floor = WriteAheadLog._snapshot_sequence(recovered.checkpoint())
            recovered.insert(make_profile("b9", text="alpha delta"), side=1)
            offset = recovered.wal.log_offset
            replicas = [
                ShardReplica(tmp_path, shard, 2, adopt_floor=floor, allow_from_zero=False)
                for shard in range(2)
            ]
            try:
                for replica in replicas:
                    replica.catch_up(offset)
                assert [replica.adopted_sequence for replica in replicas] == [floor] * 2
                view = build_pinned_view(
                    [replica.read_state() for replica in replicas],
                    recovered.index.entity_id,
                )
                answer = match_answer(view, MODEL, recovered.pruning)
                assert answer["retained"] == reference_retained(recovered)
            finally:
                for replica in replicas:
                    replica.close()
        finally:
            recovered.close()
