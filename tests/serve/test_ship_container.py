"""A shard's read state crosses the worker pipe as one checked container.

Every ``read`` reply — full or delta — is one
:mod:`repro.persistence.container` buffer.  The parent decodes it in
:meth:`ShardWorkerHandle.materialize` with every container check on, so:

* a ship flipped or truncated on the daemon side of the handle, one missing an
  array of the read-state schema, or one whose ``kind`` is neither ``full``
  nor ``delta`` is a :class:`WorkerError` naming the shard — never a
  ``KeyError``, never a state;
* it is refused before any resident state or epoch moves; the read is
  answered from the authority (``degraded: true``) when degraded reads are on;
  and the next read full-ships that shard and equals the canonical session;
* one shard's failed ship costs only that shard a full ship: the others
  applied theirs and go on shipping deltas.
"""

import threading

import numpy as np
import pytest

from reference import make_frozen_model, reference_retained
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.incremental.index import MutableBlockIndex
from repro.obs.registry import MetricsRegistry
from repro.persistence.container import SNAPSHOT_FORMAT, encode_container
from repro.serve import MatchingDaemon, ServeClient
from repro.serve.router import ShardRouter, match_answer
from repro.serve.workers import ShardWorkerHandle, WorkerError, encode_ship

pytestmark = pytest.mark.equivalence

MODEL = make_frozen_model()
TEXTS = ("alpha beta", "beta gamma", "alpha gamma")


def _flip(ship: bytes) -> bytes:
    """One bit of the last byte flipped: inside the body, where no check but
    the CRC can see it (a flipped padding or flag byte decodes to a state
    every later check accepts)."""
    return ship[:-1] + bytes([ship[-1] ^ 0x01])


def _truncate(ship: bytes) -> bytes:
    return ship[:-8]


def _encoded(state) -> dict:
    """A reply payload around ``state``, encoded as a worker encodes."""
    return {"ship": b"".join(encode_container({"format": SNAPSHOT_FORMAT, **state})), "spans": None}


def _index_ship():
    index = MutableBlockIndex(bilateral=True, name="unit")
    index._apply_insert("a0", 0, ["alpha", "beta"])
    index._apply_insert("b0", 1, ["alpha"])
    state = index.export_state()
    return {"kind": "full", "arrays": state["arrays"], "meta": state["meta"]}


class TestMaterialize:
    def test_an_intact_ship_decodes_to_the_state_it_encodes(self):
        ship = _index_ship()
        decoded = ShardWorkerHandle.materialize({"ship": encode_ship(ship), "spans": None}, 0)
        assert decoded["kind"] == "full"
        assert decoded["meta"] == {**ship["meta"], "side_counts": list(ship["meta"]["side_counts"])}
        for name, array in ship["arrays"].items():
            assert np.array_equal(decoded["arrays"][name], array)
            assert decoded["arrays"][name].dtype == array.dtype

    @pytest.mark.parametrize("damage", [_flip, _truncate, lambda ship: b"", lambda ship: ship[:20]])
    def test_a_torn_or_flipped_ship_is_a_worker_error_naming_the_shard(self, damage):
        payload = {"ship": damage(encode_ship(_index_ship())), "spans": None}
        with pytest.raises(WorkerError, match="shard worker 3 shipped a torn or malformed"):
            ShardWorkerHandle.materialize(payload, 3)

    @pytest.mark.parametrize("missing", ["indptr", "indices", "sides"])
    def test_a_ship_missing_a_schema_array_is_a_worker_error(self, missing):
        ship = _index_ship()
        del ship["arrays"][missing]
        with pytest.raises(WorkerError, match="shard worker 1"):
            ShardWorkerHandle.materialize(_encoded(ship), 1)

    def test_a_ship_without_its_scalars_is_a_worker_error(self):
        ship = _index_ship()
        del ship["meta"]
        with pytest.raises(WorkerError, match="shard worker 1"):
            ShardWorkerHandle.materialize(_encoded(ship), 1)

    def test_a_full_ship_labelled_delta_is_a_worker_error(self):
        ship = _index_ship()
        ship["kind"] = "delta"
        with pytest.raises(WorkerError, match="shard worker 0"):
            ShardWorkerHandle.materialize(_encoded(ship), 0)

    @pytest.mark.parametrize("kind", ["snapshot", None, 7, ["full"]])
    def test_a_ship_of_an_unknown_kind_is_a_worker_error(self, kind):
        ship = _index_ship()
        ship["kind"] = kind
        with pytest.raises(WorkerError, match="shard worker 0"):
            ShardWorkerHandle.materialize(_encoded(ship), 0)

    def test_a_ship_of_another_container_version_is_a_worker_error(self):
        ship = _index_ship()
        payload = {"ship": b"".join(encode_container({"format": SNAPSHOT_FORMAT + 1, **ship}))}
        with pytest.raises(WorkerError, match="shard worker 0"):
            ShardWorkerHandle.materialize(payload, 0)

    def test_a_reply_without_a_container_is_a_worker_error(self):
        for payload in ({}, {"ship": None}, None):
            with pytest.raises(WorkerError, match="shard worker 2"):
                ShardWorkerHandle.materialize(payload, 2)

    def test_a_worker_reply_is_bytes_and_telemetry_only(self, tmp_path):
        """No array crosses the pipe but as the container's raw bytes."""
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        handle = ShardWorkerHandle(tmp_path, 0, 1)
        try:
            session.insert(make_profile("a0", text="alpha beta"), side=0)
            offset = session.wal.log_offset
            reply = handle.request(("read", offset, None, None, "trace0"))
            assert set(reply) == {"ship", "spans"}
            assert isinstance(reply["ship"], bytes)
            assert [span["name"] for span in reply["spans"]] == ["catch-up", "export"]
            assert ShardWorkerHandle.materialize(reply, 0)["meta"]["offset"] == offset
        finally:
            handle.stop()
            session.close()


def _corrupt_once(monkeypatch, shard: int, damage):
    """Damage ``shard``'s next read reply on the daemon side of its handle."""
    collect = ShardWorkerHandle.collect
    pending = [True]

    def corrupted(self):
        payload = collect(self)
        if self.shard == shard and pending and isinstance(payload, dict) and "ship" in payload:
            pending.clear()
            payload["ship"] = damage(payload["ship"])
        return payload

    monkeypatch.setattr(ShardWorkerHandle, "collect", corrupted)
    return pending


class TestRouterRefusesADamagedShip:
    @pytest.mark.parametrize("damage", [_flip, _truncate])
    def test_only_the_damaged_shard_reships_full(self, tmp_path, monkeypatch, damage):
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        metrics = MetricsRegistry()
        router = ShardRouter(tmp_path, 2, session.index.entity_id, metrics=metrics)
        router.offset_source = lambda: session.wal.log_offset
        try:
            for serial, text in enumerate(TEXTS):
                session.insert(make_profile(f"a{serial}", text=text), side=0)
                session.insert(make_profile(f"b{serial}", text=text), side=1)
            router.start()
            router.pinned_view()
            held = [entry.state for entry in router._resident]
            epochs = [state.epoch for state in held]

            session.insert(make_profile("a9", text="beta gamma"), side=0)
            pending = _corrupt_once(monkeypatch, 0, damage)
            with pytest.raises(WorkerError, match="shard worker 0"):
                router.pinned_view()
            assert not pending
            # shard 0's ship was refused before it touched anything; shard 1
            # applied its delta in place, and stays resident
            assert router._resident[0] is None and held[0].epoch == epochs[0]
            assert router._resident[1].state is held[1]
            assert held[1].epoch > epochs[1]

            before = metrics.snapshot()["counters"]
            view, _, _ = router.pinned_view()
            after = metrics.snapshot()["counters"]
            assert after["full_reads"] - before["full_reads"] == 1
            assert after["delta_reads"] - before.get("delta_reads", 0) == 1
            assert match_answer(view, MODEL, session.pruning)["retained"] == (
                reference_retained(session)
            )
        finally:
            router.stop()
            session.close()


@pytest.fixture()
def daemon(tmp_path):
    """A K = 2 daemon serving on a background thread of this process."""
    daemon = MatchingDaemon(tmp_path / "wal", MODEL, num_shards=2, bilateral=True)
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    yield daemon
    daemon.request_shutdown()
    thread.join(60)
    assert not thread.is_alive(), "daemon did not shut down"


def _ships(client):
    return [(shard["ships_full"], shard["ships_delta"]) for shard in client.stats()["shards"]]


class TestDaemonRefusesADamagedShip:
    @pytest.mark.parametrize("damage", [_flip, _truncate])
    def test_degraded_answer_then_one_full_ship(self, daemon, monkeypatch, damage):
        with ServeClient(*daemon.address) as client:
            for serial, text in enumerate(TEXTS):
                client.insert(make_profile(f"a{serial}", text=text), side=0)
                client.insert(make_profile(f"b{serial}", text=text), side=1)
            assert "degraded" not in client.match()
            client.insert(make_profile("a9", text="beta gamma"), side=0)

            pending = _corrupt_once(monkeypatch, 0, damage)
            degraded = client.match()
            assert not pending
            assert degraded["degraded"] is True
            assert daemon.metrics.snapshot()["counters"]["degraded_reads"] == 1
            before = _ships(client)

            answer = client.match()
            after = _ships(client)
            assert "degraded" not in answer
            # shard 0 full-ships once; shard 1 keeps shipping deltas
            assert after[0] == (before[0][0] + 1, before[0][1])
            assert after[1] == (before[1][0], before[1][1] + 1)
            assert answer["retained"] == degraded["retained"]
            assert answer["retained"] == reference_retained(daemon.session)
