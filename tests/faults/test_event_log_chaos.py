"""Chaos + observability: the event log reconstructs the causal chain.

The acceptance contract of the observability subsystem: after driving the
live daemon through a supervisor respawn, the merged structured event log
must tell the whole story with joinable identifiers —

    client request (trace id)
      → injected fault / liveness detection (worker pid)
      → supervisor respawn (old pid → new pid)
      → replacement worker spawn (new pid, lineage token)
      → checkpoint adoption (same lineage)
      → degraded read (same trace id as the failing request)

Two scenarios: a SIGKILL mid-replay (detected as a dead/wedged worker by
the kicked supervisor) and a wedged-but-alive worker that swallows its
heartbeats (detected as a missed heartbeat).
"""

import threading
import time

import pytest

from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.obs import events as obs_events
from repro.obs import read_events
from repro.serve import MatchingDaemon, ServeClient

TEXTS = (
    "alpha beta gamma",
    "beta gamma delta",
    "alpha delta eps",
    "gamma eps zeta",
)


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
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
        plan = FaultPlan(kill_worker={0: 3})
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
        degraded_trace = None
        try:
            with ServeClient(*daemon.address) as client:
                # walk shard 0's replica onto its kill ordinal: inserts
                # journal records, and the router's follower — or a read
                # that gets there first — makes the replica replay them.  A
                # worker killed by a *follow* may be replaced before any
                # read meets it; the replacement inherits the armed plan
                # and is walked onto the ordinal in turn, until a read does
                # land on a dead worker
                deadline = time.monotonic() + 60
                serial = 0
                while degraded_trace is None:
                    assert time.monotonic() < deadline, "kill never fired"
                    side = serial % 2
                    client.insert(
                        make_profile(
                            f"{'ab'[side]}{serial}",
                            text=TEXTS[serial % len(TEXTS)],
                        ),
                        side=side,
                    )
                    answer = client.match()
                    if answer.get("degraded"):
                        degraded_trace = client.last_trace_id
                    serial += 1
                # heal: disarm before asserting, so the replacement
                # worker stays alive
                monkeypatch.delenv(FAULTS_ENV)
                faults.clear()
                # the victim is the worker whose kill degraded that read:
                # the last one to die before it
                deadline = time.monotonic() + 30
                while True:
                    log = read_events(tmp_path / "events")
                    (degraded,) = _events_of(
                        log, "degraded_read", trace=degraded_trace
                    )
                    victim_pid = [
                        event["pid"]
                        for event in _events_of(
                            log, "fault_injected", kind="kill_worker"
                        )
                        if log.index(event) < log.index(degraded)
                    ][-1]
                    if _events_of(
                        log, "worker_respawn", shard=0, old_pid=victim_pid
                    ):
                        break
                    assert time.monotonic() < deadline, "victim never replaced"
                    time.sleep(0.05)
        finally:
            faults.clear()
            _stop(daemon, thread)

        log = read_events(tmp_path / "events")

        # 1. the injected fault announced itself before killing, from
        #    inside the victim process — shard 0's worker at the time
        (fault,) = _events_of(
            log, "fault_injected", kind="kill_worker", pid=victim_pid
        )
        assert fault["shard"] == 0
        assert fault["role"] == "shard0"
        assert _events_of(log, "worker_spawn", shard=0, pid=victim_pid)

        # 2. the supervisor noticed the loss of that exact pid...
        liveness = (
            _events_of(log, "worker_dead", shard=0, pid=victim_pid)
            + _events_of(log, "worker_hang", shard=0, pid=victim_pid)
            + _events_of(log, "heartbeat_miss", shard=0, pid=victim_pid)
        )
        assert liveness, "no liveness event for the killed worker"

        # 3. ...and respawned it: old pid joins the victim, new pid joins
        #    the replacement's own spawn record
        respawns = _events_of(log, "worker_respawn", shard=0, old_pid=victim_pid)
        assert respawns
        new_pid = respawns[0]["new_pid"]
        (spawn,) = _events_of(log, "worker_spawn", shard=0, pid=new_pid)

        # 4. the replacement adopted a checkpoint under the same lineage
        adoptions = _events_of(
            log, "checkpoint_adoption", shard=0, pid=new_pid,
            lineage=spawn["lineage"],
        )
        assert adoptions, "no checkpoint adoption for the replacement lineage"

        # 5. the read that hit the dead worker degraded under ITS trace id
        #    and still completed successfully
        assert _events_of(log, "degraded_read", trace=degraded_trace)
        (request,) = _events_of(log, "request", trace=degraded_trace)
        assert request["op"] == "match"
        assert request["ok"] is True

        # 6. and the story is ordered (merged across three processes):
        #    the fault precedes everything; the replacement spawns before
        #    it adopts; the swap record lands after the fault.  (spawn may
        #    precede the respawn record — the router spawns the
        #    replacement BEFORE swapping, to keep downtime to one swap)
        assert log.index(fault) < log.index(spawn) < log.index(adoptions[0])
        assert log.index(fault) < log.index(respawns[0])


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
            deadline = time.monotonic() + 30
            while not _events_of(
                read_events(tmp_path / "events"),
                "worker_respawn", shard=0, old_pid=victim_pid,
            ):
                assert time.monotonic() < deadline, "heartbeat miss never fired"
                time.sleep(0.1)
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
        assert _events_of(
            log, "checkpoint_adoption", shard=0, lineage=spawns[0]["lineage"]
        )
        # miss precedes both halves of the swap; adoption follows the
        # spawn (spawn may precede the respawn record — the replacement
        # is launched before the supervisor journals the swap)
        assert log.index(miss) < log.index(respawn)
        assert log.index(miss) < log.index(spawns[0])
