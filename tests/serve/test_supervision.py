"""Worker supervision, reads without the fleet, deadlines and backpressure.

The daemon runs in-process with fast supervision timings; workers are
real processes killed with SIGKILL (or wedged via injected heartbeat
drops), and every availability claim is checked end-to-end through a
real client:

* while a shard worker is down, ``match`` / ``top_k`` answer the canonical
  retained set as ever — no read uses the fleet; ``stats`` still answers,
  the dead shard reporting an ``error`` entry;
* the supervisor respawns the worker, and the replacement adopts the
  newest checkpoint: its ``records_replayed`` accounting proves it
  parsed only the post-snapshot WAL tail;
* a full mutation queue sheds with a typed ``overloaded`` error the
  client may retry; an expired deadline surfaces as ``deadline`` and the
  mutation was unambiguously NOT applied.
"""

import os
import signal
import threading
import time

import pytest

from reference import reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.serve import MatchingDaemon, ServeClient, ServeError
from repro.serve.supervision import WorkerSupervisor
from waits import notified_by

TEXTS = (
    "alpha beta gamma",
    "beta gamma delta",
    "alpha delta eps",
    "gamma eps zeta",
    "beta eps zeta",
    "alpha beta zeta",
)


@pytest.mark.parametrize("option", ["heartbeat_interval", "hang_timeout"])
@pytest.mark.parametrize("seconds", [0.0, -1.0])
def test_the_supervisor_refuses_a_period_that_is_not_above_zero(option, seconds):
    """``_wake.wait(0)`` returns at once (the loop would spin), and a zero
    hang timeout fails every heartbeat."""
    with pytest.raises(ValueError, match=f"{option} must be above 0 seconds"):
        WorkerSupervisor(None, **{option: seconds})


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


def _daemon(tmp_path, model, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("bilateral", True)
    kwargs.setdefault("heartbeat_interval", 0.2)
    kwargs.setdefault("hang_timeout", 1.0)
    daemon = MatchingDaemon(tmp_path / "wal", model, **kwargs)
    return daemon, _start(daemon)


def _await_restart(daemon):
    """Whether the supervisor replaced a worker within the deadline."""
    return daemon.waiter.until(lambda: daemon._supervisor.restarts >= 1)


def _shard_errors(client):
    return [shard["shard"] for shard in client.stats()["shards"] if "error" in shard]


def _seed(client, count=len(TEXTS)):
    for i in range(count):
        side = i % 2
        client.insert(
            make_profile(f"{'ab'[side]}{i}", text=TEXTS[i % len(TEXTS)]),
            side=side,
        )


def _kill_worker(daemon, shard):
    os.kill(daemon.router.handle(shard).pid, signal.SIGKILL)


class TestReadsWithoutTheFleet:
    def test_a_read_with_a_dead_worker_is_the_canonical_answer(
        self, tmp_path, frozen_model
    ):
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            # park the supervisor so the worker stays down deterministically
            daemon._supervisor.stop()
            with ServeClient(*daemon.address) as client:
                _seed(client)
                _kill_worker(daemon, 0)
                answer = client.match()
                assert "degraded" not in answer
                assert answer["retained"] == reference_retained(daemon.session)
                assert _shard_errors(client) == [0]

                # supervision resumes -> the shard heals; reads never noticed
                daemon._supervisor.start()
                assert _await_restart(daemon), "the dead worker was never replaced"
                assert _shard_errors(client) == []
                assert client.match()["retained"] == reference_retained(
                    daemon.session
                )
                counters = client.stats()["metrics"]["counters"]
                assert "degraded_reads" not in counters
        finally:
            _stop(daemon, thread)

    def test_stats_answers_with_a_dead_worker(self, tmp_path, frozen_model):
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            daemon._supervisor.stop()
            with ServeClient(*daemon.address, retries=0) as client:
                _seed(client, count=2)
                _kill_worker(daemon, 1)
                assert "degraded" not in client.match()
                assert "degraded" not in client.top_k("a0", side=0)
                # stats stays answerable (per-shard tolerance): the dead
                # shard reports an error entry instead of failing the call
                shards = client.stats()["shards"]
                assert "error" in shards[1]
                assert "error" not in shards[0]
                # mutations are unaffected by a dead reader fleet
                client.insert(make_profile("c0", text=TEXTS[0]), side=0)
            daemon._supervisor.start()
        finally:
            _stop(daemon, thread)

    def test_reads_and_writes_go_on_with_the_whole_fleet_dead(
        self, tmp_path, frozen_model
    ):
        """No read or write waits on a worker: with every shard down, each
        ``match`` — across writes made after the fleet died — is the
        canonical answer, and a ``top_k`` gives the probabilities ``match``
        gives the same pairs."""
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            daemon._supervisor.stop()
            with ServeClient(*daemon.address, retries=0) as client:
                _seed(client)
                for shard in range(2):
                    _kill_worker(daemon, shard)
                assert client.match()["retained"] == reference_retained(daemon.session)
                client.insert(make_profile("c0", text=TEXTS[0]), side=0)
                client.remove("b1", side=1)
                answer = client.match()
                assert answer["retained"] == reference_retained(daemon.session)
                retained = {(a, b): p for a, b, p in answer["retained"]}
                shared = [
                    (match["probability"], retained[("c0", match["entity_id"])])
                    for match in client.top_k("c0", side=0, k=10)["matches"]
                    if ("c0", match["entity_id"]) in retained
                ]
                assert shared and all(top == kept for top, kept in shared)
                assert _shard_errors(client) == [0, 1]
            daemon._supervisor.start()
        finally:
            _stop(daemon, thread)


class TestSupervisorRespawns:
    def test_sigkilled_worker_is_respawned(self, tmp_path, frozen_model):
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            with ServeClient(*daemon.address) as client:
                _seed(client)
                before = client.match()
                _kill_worker(daemon, 0)
                assert _await_restart(daemon)
                assert _shard_errors(client) == [], "the respawned worker never answered"
                after = client.match()
                assert after["retained"] == before["retained"]
                stats = client.stats()
                assert stats["daemon"]["supervision"]["worker_restarts"] >= 1
        finally:
            _stop(daemon, thread)

    def test_dropped_heartbeats_trigger_respawn(
        self, tmp_path, frozen_model, monkeypatch
    ):
        # shard 0's worker swallows its first 3 pings; one missed heartbeat
        # is fatal, so the supervisor replaces it (spawn_grace 0 puts the
        # fresh worker under heartbeat checks immediately)
        plan = FaultPlan(drop_heartbeats={0: 3})
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        faults.clear()  # re-arm the parent's cached plan from the env
        daemon, thread = _daemon(tmp_path, frozen_model, spawn_grace=0.0)
        try:
            assert _await_restart(daemon), (
                "a worker swallowing pings was never replaced"
            )
            monkeypatch.delenv(FAULTS_ENV)
            faults.clear()
            with ServeClient(*daemon.address) as client:
                _seed(client, count=2)
                assert client.match()["retained"] == reference_retained(daemon.session)
        finally:
            faults.clear()
            _stop(daemon, thread)

    def test_respawned_worker_adopts_checkpoint_and_replays_only_tail(
        self, tmp_path, frozen_model
    ):
        # generous hang_timeout: detection here is dead-pid (immediate),
        # and a loaded machine must not false-positive the healthy shard
        daemon, thread = _daemon(tmp_path, frozen_model, hang_timeout=5.0)
        try:
            with ServeClient(*daemon.address) as client:
                _seed(client)
                client.checkpoint()  # snapshot 2 (init wrote snapshot 1)
                tail_mutations = 3
                for i in range(tail_mutations):
                    client.insert(
                        make_profile(f"t{i}", text=TEXTS[i]), side=i % 2
                    )
                client.stats()  # both workers are caught up past the tail
                _kill_worker(daemon, 0)
                assert _await_restart(daemon)
                fresh = client.stats()["shards"][0]
                assert fresh["adopted_snapshot"] >= 2
                assert fresh["bytes_skipped"] > 0
                # O(tail) bootstrap: the replacement parsed only the few
                # records past the adopted checkpoint, never the seeded
                # history before it
                assert fresh["records_replayed"] <= tail_mutations + 2
        finally:
            _stop(daemon, thread)


class TestDeadlinesAndBackpressure:
    def _occupy_mutator(self, daemon, monkeypatch, hold=1.2):
        """First insert holds the mutation thread for ``hold`` seconds; returns
        once it does."""
        original = daemon.session.insert
        holding = threading.Event()

        def slow_insert(profile, side=0):
            if not holding.is_set():
                holding.set()
                time.sleep(hold)
            return original(profile, side=side)

        monkeypatch.setattr(daemon.session, "insert", slow_insert)

        def occupier():
            with ServeClient(*daemon.address) as client:
                client.insert(make_profile("slow", text=TEXTS[0]), side=0)

        thread = threading.Thread(target=occupier)
        thread.start()
        assert holding.wait(30), "the slow insert never reached the mutation thread"
        return thread

    def test_full_mutation_queue_sheds_with_typed_error(
        self, tmp_path, frozen_model, monkeypatch
    ):
        daemon, thread = _daemon(
            tmp_path, frozen_model, max_pending=1
        )
        try:
            occupier = self._occupy_mutator(daemon, monkeypatch)
            with ServeClient(*daemon.address, retries=0) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.insert(make_profile("shed", text=TEXTS[1]), side=0)
                assert excinfo.value.error_type == "overloaded"
            # a retrying client rides out the overload with backoff
            with ServeClient(
                *daemon.address, retries=6, backoff=0.3
            ) as client:
                result = client.insert(
                    make_profile("retried", text=TEXTS[2]), side=0
                )
                assert result["entity_id"] == "retried"
            occupier.join(30)
            assert not occupier.is_alive()
            with ServeClient(*daemon.address) as client:
                assert client.stats()["metrics"]["counters"].get(
                    "shed_mutations", 0
                ) >= 1
        finally:
            _stop(daemon, thread)

    def test_expired_deadline_means_not_applied(
        self, tmp_path, frozen_model, monkeypatch
    ):
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            occupier = self._occupy_mutator(daemon, monkeypatch)
            with ServeClient(
                *daemon.address, retries=0, deadline_ms=200
            ) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.insert(make_profile("d0", text=TEXTS[1]), side=0)
                assert excinfo.value.error_type == "deadline"
            occupier.join(30)
            # the deadline fired before the apply: the same id now inserts
            # cleanly, proving the timed-out mutation left no trace
            with ServeClient(*daemon.address) as client:
                result = client.insert(make_profile("d0", text=TEXTS[1]), side=0)
                assert result["entity_id"] == "d0"
                assert client.stats()["metrics"]["counters"].get(
                    "deadline_exceeded", 0
                ) >= 1
        finally:
            _stop(daemon, thread)

    def test_non_positive_deadline_is_rejected(self, tmp_path, frozen_model):
        daemon, thread = _daemon(tmp_path, frozen_model)
        try:
            with ServeClient(*daemon.address, retries=0) as client:
                # past the client's own refusal, as another peer may send it
                client.deadline_ms = -5
                with pytest.raises(ServeError) as excinfo:
                    client.ping()
                assert excinfo.value.error_type == "bad_request"
        finally:
            _stop(daemon, thread)
