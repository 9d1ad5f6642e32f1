"""Follow eagerly, pin late: replication off the read path stays consistent.

The router's follower thread moves every shard worker forward as soon as a
write is applied, so a read's offset can no longer be taken *before* the
fan-out — a worker might already be past it, and replicas never rewind.
These tests pin the contract that survives moving the replay:

* under a concurrent writer, every ``match`` equals the canonical session
  replayed from the WAL to exactly the offset the answer reports — no read
  degrades, no worker is restarted, ``stats`` never sees a shard error;
* ``_fan_out`` evaluates a callable command only once every handle lock is
  held — where ``read``, ``stats`` and ``follow`` take their offset;
* a follow that fails never leaves its worker answering: the worker is
  killed, the supervisor replaces it once, the next ``match`` is canonical;
* a replica whose ``apply`` raises stays at its last applied record.
"""

import os
import random
import signal
import threading
import time

import pytest

from reference import make_frozen_model, reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.incremental import MatchingSession
from repro.obs.registry import MetricsRegistry
from repro.serve import MatchingDaemon, ServeClient
from repro.serve.router import ShardRouter
from repro.serve.workers import ShardReplica, WalRecordFollower, WorkerError

MODEL = make_frozen_model()
TOKENS = ("alpha", "beta", "gamma", "delta", "eps", "zeta")
WRITES = 400
READS = 120


def _start(tmp_path, **kwargs):
    daemon = MatchingDaemon(
        tmp_path / "wal", MODEL, num_shards=2, bilateral=True, **kwargs
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    return daemon, thread


def _stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(60)
    assert not thread.is_alive(), "daemon did not shut down"


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def _restarts(stats):
    return stats["daemon"]["supervision"]["worker_restarts"]


def _canonical_answers(wal_dir, offsets):
    """``match``'s retained list at each offset, from one session replaying
    the log forward (a from-zero replay lives in the authority's node space;
    ``advance_to`` refuses an offset that is not a record boundary)."""
    session = MatchingSession(MODEL, bilateral=True)
    follower = WalRecordFollower(wal_dir / "wal.log")
    answers = {}
    try:
        for offset in sorted(set(offsets)):
            for record in follower.advance_to(offset):
                session._replay_record(record)
            answers[offset] = reference_retained(session)
    finally:
        follower.close()
    return answers


class TestConcurrentWriterAndReader:
    def test_every_match_is_the_canonical_answer_at_its_offset(self, tmp_path):
        daemon, thread = _start(tmp_path)
        answers, mid_run_stats, failures = [], [], []

        def write():
            rng = random.Random(7)
            live = set()
            try:
                with ServeClient(*daemon.address) as client:
                    for _ in range(WRITES):
                        side = rng.randrange(2)
                        entity_id = f"{'ab'[side]}{rng.randrange(6)}"
                        profile = make_profile(
                            entity_id, text=" ".join(rng.sample(TOKENS, 3))
                        )
                        if (side, entity_id) not in live:
                            client.insert(profile, side=side)
                            live.add((side, entity_id))
                        elif rng.random() < 0.5:
                            client.update(profile, side=side)
                        else:
                            client.remove(entity_id, side=side)
                            live.discard((side, entity_id))
            except Exception as error:  # noqa: BLE001 - reported by the test body
                failures.append(error)

        def read():
            try:
                with ServeClient(*daemon.address) as client:
                    for serial in range(READS):
                        answers.append(client.match())
                        if serial == READS // 2:
                            mid_run_stats.append(client.stats())
            except Exception as error:  # noqa: BLE001 - reported by the test body
                failures.append(error)

        try:
            threads = [threading.Thread(target=write), threading.Thread(target=read)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(120)
                assert not worker.is_alive()
            assert not failures, failures
            with ServeClient(*daemon.address) as client:
                stats = client.stats()
        finally:
            _stop(daemon, thread)

        assert len(answers) == READS
        assert not any(answer.get("degraded") for answer in answers)
        canonical = _canonical_answers(
            tmp_path / "wal", [answer["offset"] for answer in answers]
        )
        for answer in answers:
            assert answer["retained"] == canonical[answer["offset"]], (
                f"match at offset {answer['offset']} is not the canonical answer"
            )
        # the reads really did interleave with the writes
        assert len({answer["offset"] for answer in answers}) > 1

        for snapshot in (*mid_run_stats, stats):
            assert not [s for s in snapshot["shards"] if "error" in s]
            assert {s["offset"] for s in snapshot["shards"]} == {
                snapshot["daemon"]["wal_offset"]
            }
        assert stats["metrics"]["counters"].get("degraded_reads", 0) == 0
        assert stats["daemon"]["supervision"]["worker_restarts"] == 0
        follows = stats["metrics"]["operations"]["replica_follow"]
        assert follows["count"] >= 1 and follows["errors"] == 0


class _FakeHandle:
    """The supervision surface of a worker handle, with no process behind it."""

    def __init__(self, shard, fail=False):
        self.shard = shard
        self.lock = threading.Lock()
        self.busy_since = None
        self.sent = []
        self.killed = False
        self._fail = fail

    def send(self, command):
        assert self.lock.locked() and self.busy_since is not None
        self.sent.append(command)

    def collect(self):
        if self._fail:
            raise WorkerError(f"shard worker {self.shard} failed: boom", self)
        return {"shard": self.shard, "offset": self.sent[-1][1]}

    def kill(self):
        self.killed = True


def _bare_router(tmp_path, handles, metrics=None):
    router = ShardRouter(tmp_path, len(handles), str, metrics=metrics)
    router._handles = list(handles)
    return router


class TestPinUnderTheLocks:
    def test_fan_out_evaluates_a_callable_only_with_every_lock_held(self, tmp_path):
        handles = [_FakeHandle(0), _FakeHandle(1)]
        router = _bare_router(tmp_path, handles)
        evaluated = []

        def command():
            evaluated.append(
                [h.lock.locked() and h.busy_since is not None for h in handles]
            )
            return ("follow", 42)

        assert not any(handle.lock.locked() for handle in handles)
        replies = router._fan_out(command)
        assert evaluated == [[True, True]]
        assert replies == [{"shard": 0, "offset": 42}, {"shard": 1, "offset": 42}]
        assert [handle.sent for handle in handles] == [[("follow", 42)]] * 2
        assert not any(handle.lock.locked() for handle in handles)
        assert all(handle.busy_since is None for handle in handles)

    def test_a_callable_that_raises_releases_every_lock(self, tmp_path):
        handles = [_FakeHandle(0), _FakeHandle(1)]
        router = _bare_router(tmp_path, handles)

        def command():
            raise RuntimeError("no offset today")

        with pytest.raises(RuntimeError, match="no offset today"):
            router._fan_out(command)
        assert not any(handle.lock.locked() for handle in handles)
        assert all(handle.sent == [] for handle in handles)

    def test_stats_and_follow_read_their_offset_under_the_locks(self, tmp_path):
        handles = [_FakeHandle(0), _FakeHandle(1)]
        metrics = MetricsRegistry()
        router = _bare_router(tmp_path, handles, metrics)
        head = iter(range(100, 200))

        def offset_source():
            assert all(handle.lock.locked() for handle in handles)
            return next(head)

        router.serial_source = lambda: 7
        router.offset_source = offset_source
        offset, shards = router.shard_stats()
        assert offset == 100
        assert [shard["offset"] for shard in shards] == [100, 100]
        assert router.followed_serials == {}

        router._follow()
        assert [handle.sent[-1] for handle in handles] == [("follow", 101)] * 2
        assert router.followed_serials == {0: 7, 1: 7}
        follows = metrics.snapshot()["operations"]["replica_follow"]
        assert follows["count"] == 1 and follows["errors"] == 0

    def test_a_failed_follow_kills_its_worker_and_kicks_the_supervisor(self, tmp_path):
        handles = [_FakeHandle(0), _FakeHandle(1, fail=True)]
        metrics = MetricsRegistry()
        router = _bare_router(tmp_path, handles, metrics)
        kicks = []
        router.offset_source = lambda: 64
        router.serial_source = lambda: 3
        router.kick_supervisor = lambda: kicks.append(True)

        router._follow()  # must not raise: the follower thread never dies
        assert [handle.killed for handle in handles] == [False, True]
        assert kicks == [True]
        assert router.followed_serials == {}
        follows = metrics.snapshot()["operations"]["replica_follow"]
        assert follows["count"] == 1 and follows["errors"] == 1

    def test_a_router_without_an_offset_source_never_follows_nor_pins(self, tmp_path):
        handle = _FakeHandle(0)
        router = _bare_router(tmp_path, [handle])
        router.start()  # the fleet is already "spawned": only the thread is at stake
        try:
            assert router._follower is None
            router.notify_write()  # nobody listens; nothing blocks
            # one source for reads, stats and follows — and no way around it
            with pytest.raises(WorkerError, match="no offset source"):
                router.pinned_view()
            with pytest.raises(WorkerError, match="no offset source"):
                router.shard_stats()
            assert handle.sent == [] and not handle.lock.locked()
        finally:
            router._handles = []
            router.stop()


class TestFollowFailure:
    """Supervision stays live throughout: a failed follow kills its worker,
    kicks the supervisor, and the one respawn path replaces it while writes
    keep being acked."""

    def test_a_worker_killed_mid_follow_is_replaced_once(
        self, tmp_path, monkeypatch
    ):
        # shard 0's worker dies applying its 2nd record.  No read is issued
        # before that, so the record is replayed by a *follow*
        plan = FaultPlan(kill_worker={0: 2})
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        faults.clear()  # the first workers inherit the armed env at spawn...
        # the heartbeat is out of the picture: only the follower's kick can
        # have the victim replaced
        daemon, thread = _start(tmp_path, heartbeat_interval=300.0)
        # ...and their replacements a disarmed one: the kill fires once
        monkeypatch.delenv(FAULTS_ENV)
        faults.clear()
        try:
            victim = daemon.router.handle(0)
            with ServeClient(*daemon.address) as client:
                for serial in range(4):
                    # every write is acked, before, at and after the kill
                    side = serial % 2
                    reply = client.insert(
                        make_profile(
                            f"{'ab'[side]}{serial}", text=" ".join(TOKENS[serial:][:3])
                        ),
                        side=side,
                    )
                    assert reply["offset"] == daemon.session.wal.log_offset
                assert _wait_until(
                    lambda: _restarts(client.stats()) == 1
                ), "the failed follow never had its worker replaced"
                assert not victim.alive
                assert daemon.router.handle(0) is not victim
                answer = client.match()
                assert answer.get("degraded") is None
                assert answer["offset"] == daemon.session.wal.log_offset
                assert answer["retained"] == reference_retained(daemon.session)
                # the replacement is followed like any other worker
                client.insert(make_profile("a9", text="alpha beta"), side=0)
                assert client.match()["retained"] == reference_retained(
                    daemon.session
                )
                stats = client.stats()
            assert _restarts(stats) == 1
            assert stats["metrics"]["counters"].get("degraded_reads", 0) == 0
            follows = stats["metrics"]["operations"]["replica_follow"]
            assert follows["errors"] >= 1
        finally:
            faults.clear()
            _stop(daemon, thread)

    def test_a_sigkilled_worker_fails_the_follow_not_the_write(self, tmp_path):
        daemon, thread = _start(tmp_path, heartbeat_interval=300.0)
        try:
            with ServeClient(*daemon.address) as client:
                client.insert(make_profile("a0", text="alpha beta"), side=0)
                os.kill(daemon.router.handle(1).pid, signal.SIGKILL)
                # acked although nobody can follow it on shard 1
                reply = client.insert(make_profile("b0", text="alpha beta"), side=1)
                assert reply["offset"] == daemon.session.wal.log_offset
                assert _wait_until(
                    lambda: client.match().get("degraded") is None
                )
                assert client.match()["retained"] == reference_retained(
                    daemon.session
                )
                assert _restarts(client.stats()) == 1
        finally:
            _stop(daemon, thread)


class TestPositionAdvancesPerAppliedRecord:
    def test_an_apply_that_raises_leaves_the_position_at_the_last_applied_record(
        self, tmp_path, monkeypatch
    ):
        session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path)
        boundaries = []
        try:
            for serial, text in enumerate(("alpha beta", "beta gamma", "alpha gamma")):
                session.insert(make_profile(f"a{serial}", text=text), side=0)
                boundaries.append(session.wal.log_offset)
            replica = ShardReplica(tmp_path, 0, 1)
            try:
                apply = ShardReplica.apply

                def failing(self, record):
                    if record.get("id") == "a1":
                        raise RuntimeError("injected apply failure")
                    apply(self, record)

                monkeypatch.setattr(ShardReplica, "apply", failing)
                with pytest.raises(RuntimeError, match="injected apply failure"):
                    replica.catch_up(boundaries[-1])
                # past "a0", not stranded at the target with "a1" and "a2" lost
                assert replica.offset == boundaries[0]
                assert replica.index.num_entities == 1
                delivered = replica.follower.records_delivered

                monkeypatch.undo()
                replica.catch_up(boundaries[-1])
                assert replica.offset == boundaries[-1]
                assert replica.index.num_entities == 3
                assert replica.follower.records_delivered == delivered + 2
            finally:
                replica.close()
        finally:
            session.close()
