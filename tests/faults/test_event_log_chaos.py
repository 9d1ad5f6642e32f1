"""Chaos + observability: the event log reconstructs the causal chain.

The acceptance contract of the observability subsystem: after driving the
live daemon through a supervisor respawn, the merged structured event log
must tell the whole story with joinable identifiers —

    injected fault (worker pid)
      → failed follow (shard, cause)
      → liveness detection (worker pid)
      → supervisor respawn (old pid → new pid)
      → replacement worker spawn (new pid)
      → checkpoint adoption (same pid)

while every client request (trace id) around it answers, because no read
uses the fleet.  Two scenarios: a SIGKILL mid-replay (detected as a
dead/wedged worker by the kicked supervisor) and a wedged-but-alive worker
that swallows its heartbeats (detected as a missed heartbeat).
"""

import threading

import pytest

from reference import reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.obs import events as obs_events
from repro.obs import read_events
from repro.serve import MatchingDaemon, ServeClient
from waits import notified_by

TEXTS = (
    "alpha beta gamma",
    "beta gamma delta",
    "alpha delta eps",
    "gamma eps zeta",
)
#: the record shard 0's first worker dies applying
KILL_ORDINAL = 3


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    # every respawn wakes the waits below
    daemon.waiter = notified_by(daemon._supervisor, "on_restart")
    return thread


def _stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(60)
    assert not thread.is_alive(), "daemon did not shut down"
    obs_events.configure(None)


def _events_of(log, event_type, **match):
    return [
        event
        for event in log
        if event.get("type") == event_type
        and all(event.get(key) == value for key, value in match.items())
    ]


@pytest.mark.chaos
class TestKillChain:
    def test_event_log_reconstructs_the_kill_respawn_adoption_chain(
        self, tmp_path, frozen_model, monkeypatch
    ):
        plan = FaultPlan(kill_worker={0: KILL_ORDINAL})
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        faults.clear()  # the worker inherits the armed env at spawn
        daemon = MatchingDaemon(
            tmp_path / "wal",
            frozen_model,
            num_shards=2,
            bilateral=True,
            heartbeat_interval=0.2,
            hang_timeout=1.0,
            event_log=tmp_path / "events",
        )
        thread = _start(daemon)
        reads = []
        try:
            with ServeClient(*daemon.address) as client:
                # shard 0's replica dies applying the KILL_ORDINAL-th record,
                # replayed by the follow of that write; a read after every
                # write, the kill's included, answers from the daemon's own
                # view.  The replacement inherits the armed plan, so no
                # record is written after the kill for it to replay
                for serial in range(KILL_ORDINAL):
                    side = serial % 2
                    client.insert(
                        make_profile(
                            f"{'ab'[side]}{serial}",
                            text=TEXTS[serial % len(TEXTS)],
                        ),
                        side=side,
                    )
                    answer = client.match()
                    assert "degraded" not in answer
                    assert answer["retained"] == reference_retained(daemon.session)
                    reads.append(client.last_trace_id)
                assert daemon.waiter.until(
                    lambda: daemon._supervisor.restarts >= 1
                ), "the killed worker was never replaced"
                monkeypatch.delenv(FAULTS_ENV)
                faults.clear()
                assert client.match()["retained"] == reference_retained(daemon.session)
                reads.append(client.last_trace_id)
        finally:
            faults.clear()
            _stop(daemon, thread)

        log = read_events(tmp_path / "events")

        # 1. the injected fault announced itself before killing, from
        #    inside the victim process — shard 0's first worker (a follow
        #    woken twice may walk an armed replacement onto it in turn)
        fault = _events_of(log, "fault_injected", kind="kill_worker")[0]
        victim_pid = fault["pid"]
        assert fault["shard"] == 0
        assert fault["role"] == "shard0"
        assert _events_of(log, "worker_spawn", shard=0, pid=victim_pid)

        # 2. the follow that met the kill journaled its shard and cause ...
        follow_error = _events_of(log, "replica_follow_error", shard=0)[0]
        assert follow_error["cause"].startswith("WorkerError: shard worker 0")

        # 3. ... and the supervisor it kicked noticed the loss of that pid
        liveness = (
            _events_of(log, "worker_dead", shard=0, pid=victim_pid)
            + _events_of(log, "worker_hang", shard=0, pid=victim_pid)
            + _events_of(log, "heartbeat_miss", shard=0, pid=victim_pid)
        )
        assert liveness, "no liveness event for the killed worker"

        # 4. and respawned it: old pid joins the victim, new pid joins the
        #    replacement's own spawn record
        respawns = _events_of(log, "worker_respawn", shard=0, old_pid=victim_pid)
        assert respawns
        new_pid = respawns[0]["new_pid"]
        (spawn,) = _events_of(log, "worker_spawn", shard=0, pid=new_pid)

        # 5. the replacement adopted a checkpoint in its own process
        adoptions = _events_of(log, "checkpoint_adoption", shard=0, pid=new_pid)
        assert adoptions, "no checkpoint adoption for the replacement"

        # 6. every read answered, under its own trace id, and none fell back
        #    to anything: no read touches the fleet
        for trace in reads:
            (request,) = _events_of(log, "request", trace=trace)
            assert request["op"] == "match" and request["ok"] is True
        assert not _events_of(log, "degraded_read")

        # 7. and the story is ordered (merged across three processes): the
        #    fault precedes the failed follow and everything after it; the
        #    replacement spawns before it adopts.  (spawn may precede the
        #    respawn record — the router spawns the replacement BEFORE
        #    swapping, to keep downtime to one swap)
        assert log.index(fault) < log.index(follow_error) < log.index(respawns[0])
        assert log.index(fault) < log.index(spawn) < log.index(adoptions[0])


@pytest.mark.chaos
class TestHeartbeatChain:
    def test_missed_heartbeats_chain_to_respawn_and_adoption(
        self, tmp_path, frozen_model, monkeypatch
    ):
        plan = FaultPlan(drop_heartbeats={0: 10_000})
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        faults.clear()
        daemon = MatchingDaemon(
            tmp_path / "wal",
            frozen_model,
            num_shards=2,
            bilateral=True,
            heartbeat_interval=0.1,
            hang_timeout=0.4,
            spawn_grace=0.2,
            event_log=tmp_path / "events",
        )
        thread = _start(daemon)
        try:
            victim_pid = daemon.router.handle(0).pid
            # the respawn is journaled before its callback wakes this wait
            assert daemon.waiter.until(
                lambda: _events_of(
                    read_events(tmp_path / "events"),
                    "worker_respawn", shard=0, old_pid=victim_pid,
                )
            ), "heartbeat miss never fired"
            # disarm so replacement workers answer their pings again
            monkeypatch.delenv(FAULTS_ENV)
            faults.clear()
        finally:
            faults.clear()
            _stop(daemon, thread)

        log = read_events(tmp_path / "events")
        # the dropped pings were journaled by the wedged worker itself
        drops = _events_of(log, "fault_injected", kind="drop_heartbeat")
        assert drops and all(event["shard"] == 0 for event in drops)
        (miss,) = _events_of(log, "heartbeat_miss", shard=0, pid=victim_pid)
        (respawn,) = _events_of(
            log, "worker_respawn", shard=0, old_pid=victim_pid
        )
        assert respawn["reason"] == "missed heartbeat"
        spawns = _events_of(log, "worker_spawn", shard=0, pid=respawn["new_pid"])
        assert spawns
        assert _events_of(log, "checkpoint_adoption", shard=0, pid=respawn["new_pid"])
        # miss precedes both halves of the swap; adoption follows the
        # spawn (spawn may precede the respawn record — the replacement
        # is launched before the supervisor journals the swap)
        assert log.index(miss) < log.index(respawn)
        assert log.index(miss) < log.index(spawns[0])
