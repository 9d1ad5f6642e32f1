"""Integration tests for observability on the live serving path.

One in-process daemon per test class, with an event-log directory (which
is what turns span recording on) and a zero slow-request threshold,
exercising:

* trace ids — client-supplied ids echoed back, server-minted ids for
  old (v1-style) envelopes that carry none;
* the ``metrics`` protocol op (Prometheus text exposition) and the
  process gauges behind it;
* request events in the structured log, with span trees that cross the
  dispatch threads and the WAL, and the shard workers' lifecycle events;
* ``render_stats`` of a live ``stats`` payload (including the new
  gauges line).
"""

import socket
import threading
from contextlib import contextmanager

import pytest

from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.obs import events as obs_events
from repro.obs import read_events, render_stats
from repro.serve import MatchingDaemon, ServeClient
from repro.serve.protocol import read_message_from, write_message_to
from repro.serve.workers import ShardWorkerHandle
from waits import notified_by


def _span_names(tree):
    if tree is None:
        return set()
    names = {tree.get("name")}
    for child in tree.get("children", ()):
        names |= _span_names(child)
    return names


def _find_spans(tree, name):
    found = [tree] if tree.get("name") == name else []
    for child in tree.get("children", ()):
        found += _find_spans(child, name)
    return found


@contextmanager
def _serving(tmp_path, frozen_model):
    daemon = MatchingDaemon(
        tmp_path / "wal",
        frozen_model,
        num_shards=2,
        bilateral=True,
        event_log=tmp_path / "events",
        slow_request_ms=0.0,
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    # hooked before any write: every follow acknowledgement and every
    # respawn wakes the waits below
    daemon.waiter = notified_by(daemon.router, "_mark_followed")
    notified_by(daemon._supervisor, "on_restart", daemon.waiter)
    try:
        yield daemon
    finally:
        daemon.request_shutdown()
        thread.join(60)
        assert not thread.is_alive()
        obs_events.configure(None)


@pytest.fixture()
def obs_daemon(tmp_path, frozen_model):
    with _serving(tmp_path, frozen_model) as daemon:
        yield daemon


def _await_followed(daemon, client):
    """The ``metrics`` half of a ``stats`` taken once no shard lags: every
    shard acknowledged a follow of the last acked write."""
    followed = daemon.waiter.until(
        lambda: all(
            daemon.router.followed_serials.get(shard, 0) >= daemon._mutation_serial
            for shard in (0, 1)
        )
    )
    assert followed, f"never followed: {daemon.router.followed_serials}"
    stats = client.stats()["metrics"]
    lags = [stats["gauges"][f"shard{shard}_replica_lag_records"] for shard in (0, 1)]
    assert lags == [0.0, 0.0]
    return stats


def _raw_request(address, message):
    with socket.create_connection(address, timeout=30) as sock:
        stream = sock.makefile("rwb")
        write_message_to(stream, message)
        return read_message_from(stream)


class TestTraceEnvelope:
    def test_client_supplied_trace_is_echoed(self, obs_daemon):
        response = _raw_request(
            obs_daemon.address,
            {"op": "ping", "id": 1, "args": {}, "trace": "cafe0123beef4567"},
        )
        assert response["ok"] is True
        assert response["trace"] == "cafe0123beef4567"

    def test_server_mints_a_trace_for_v1_envelopes(self, obs_daemon):
        # an old client sends no "trace" field; the response carries a
        # server-minted id, so old clients keep working and every request
        # is still traceable
        response = _raw_request(
            obs_daemon.address, {"op": "ping", "id": 1, "args": {}}
        )
        assert response["ok"] is True
        minted = response["trace"]
        assert len(minted) == 16
        int(minted, 16)

    def test_error_responses_carry_the_trace_too(self, obs_daemon):
        response = _raw_request(
            obs_daemon.address,
            {"op": "no_such_op", "id": 1, "args": {}, "trace": "feed0123dead4567"},
        )
        assert response["ok"] is False
        assert response["trace"] == "feed0123dead4567"

    def test_serve_client_tracks_its_last_trace_id(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.ping()
            first = client.last_trace_id
            client.ping()
            second = client.last_trace_id
        assert first and second and first != second


class TestMetricsOp:
    def test_prometheus_exposition_over_the_wire(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            client.match()
            answer = client.metrics()
        assert answer["content_type"].startswith("text/plain; version=0.0.4")
        text = answer["text"]
        for family in (
            'repro_request_duration_seconds_bucket{op="match"',
            'repro_request_duration_seconds_count{op="insert"} 1',
            "repro_connections_open 1",
            "# TYPE repro_process_rss_bytes gauge",
            "# TYPE repro_wal_size_bytes gauge",
            "# TYPE repro_shard0_replica_lag_records gauge",
            "# TYPE repro_shard1_replica_lag_records gauge",
            "# TYPE repro_snapshot_age_seconds gauge",
        ):
            assert family in text, f"missing family: {family}"

    def test_replica_lag_gauge_reads_replication_lag(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            client.insert(make_profile("b1", text="alpha beta"), side=1)
            # no read is needed: the follower replays each write on the
            # workers as it is acked, and its acks are what the gauge
            # subtracts
            stats = _await_followed(obs_daemon, client)
            assert stats["operations"].get("match") is None
            # the follow fan-outs are an operation like any other: count, mean
            follows = stats["operations"]["replica_follow"]
            assert 1 <= follows["count"] <= 2 and follows["errors"] == 0
            assert follows["mean_ms"] > 0

    def test_a_respawned_worker_lags_until_it_is_followed(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            _await_followed(obs_daemon, client)  # no follow is left in flight
            assert obs_daemon.router.respawn(0) is not None
            gauges = client.stats()["metrics"]["gauges"]
            # the replacement has acknowledged nothing yet; its peer has
            assert gauges["shard0_replica_lag_records"] == 1.0
            assert gauges["shard1_replica_lag_records"] == 0.0
            # a read reaches no worker, so it follows nothing ...
            client.match()
            gauges = client.stats()["metrics"]["gauges"]
            assert gauges["shard0_replica_lag_records"] == 1.0
            # ... the next write's follow does
            client.insert(make_profile("b1", text="alpha beta"), side=1)
            _await_followed(obs_daemon, client)


class TestRequestEvents:
    def test_request_events_reconstruct_span_trees(self, obs_daemon, tmp_path):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            insert_trace = client.last_trace_id
            client.insert(make_profile("b1", text="alpha beta"), side=1)
            client.match()
            match_trace = client.last_trace_id
            client.top_k("a1", side=0)
            shared_top_k_trace = client.last_trace_id
            client.insert(make_profile("b2", text="alpha"), side=1)
            client.top_k("a1", side=0)
            top_k_trace = client.last_trace_id
            client.match()
            shared_match_trace = client.last_trace_id
        log = read_events(tmp_path / "events")
        requests = {
            event["trace"]: event
            for event in log
            if event["type"] == "request"
        }
        assert requests[insert_trace]["op"] == "insert"
        assert requests[insert_trace]["ok"] is True
        # the mutation's span tree reaches down into the WAL
        insert_spans = _span_names(requests[insert_trace]["spans"])
        assert {"insert", "queue-wait", "mutate", "wal-append"} <= insert_spans
        # the read's span tree: its queue, the view's advance on the
        # mutation thread, the answer — and no worker
        match_spans = _span_names(requests[match_trace]["spans"])
        assert {"match", "queue-wait", "advance", "score-and-prune"} <= match_spans
        assert not match_spans & {"fan-out", "view-apply", "shard0", "shard1"}
        # the answer is split into its stages, once each per request: the
        # first read at a state computes the exact read, and a read at the
        # same state after it (no write in between) reuses it
        def answer_span(trace, name):
            (span,) = _find_spans(requests[trace]["spans"], name)
            return span["tags"]["shared"], [child["name"] for child in span.get("children", ())]

        computed = ["merge-pairs", "features", "score", "prune"]
        assert answer_span(match_trace, "score-and-prune") == (False, computed)
        assert answer_span(shared_top_k_trace, "score-top-k") == (True, ["select"])
        assert answer_span(top_k_trace, "score-top-k") == (False, [*computed, "select"])
        assert answer_span(shared_match_trace, "score-and-prune") == (True, [])
        assert requests[match_trace]["duration_ms"] > 0

    def test_a_failed_follow_is_journaled_with_shard_offset_and_cause(
        self, tmp_path, frozen_model, monkeypatch
    ):
        # shard 1's first worker dies applying its first record; no read is
        # issued, so it is a follow that meets the kill.  The plan reaches
        # the first workers only (they inherit the environment at spawn):
        # the supervisor, live throughout, spawns a disarmed replacement
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(kill_worker={1: 1}).to_json())
        faults.clear()
        with _serving(tmp_path, frozen_model) as daemon:
            monkeypatch.delenv(FAULTS_ENV)
            faults.clear()
            with ServeClient(*daemon.address) as client:
                offset = client.insert(
                    make_profile("a1", text="alpha beta"), side=0
                )["offset"]
                # the follow error is journaled before the kick that has
                # its worker replaced, and the respawn before its callback
                assert daemon.waiter.until(lambda: daemon._supervisor.restarts >= 1), (
                    "the failed follow's worker found no heir"
                )
                log = read_events(tmp_path / "events")
                errors = [event for event in log if event["type"] == "replica_follow_error"]
                assert errors and any(event["type"] == "worker_respawn" for event in log)
        assert errors[0]["shard"] == 1
        assert errors[0]["offset"] == offset
        assert errors[0]["cause"].startswith("WorkerError: shard worker 1")
        assert errors[0]["role"] == "daemon"

    def test_request_start_and_slow_request_events(self, obs_daemon, tmp_path):
        with ServeClient(*obs_daemon.address) as client:
            client.ping()
            trace = client.last_trace_id
        log = read_events(tmp_path / "events")
        types_for_trace = [
            event["type"] for event in log if event.get("trace") == trace
        ]
        assert "request_start" in types_for_trace
        assert "request" in types_for_trace
        # threshold 0.0 marks everything slow
        assert "slow_request" in types_for_trace

    def test_worker_lifecycle_events_are_journaled(self, obs_daemon, tmp_path):
        with ServeClient(*obs_daemon.address) as client:
            # a worker journals its spawn and adoption before it serves its
            # first command, so a ``stats`` every shard answered orders both
            # before this point
            assert not [shard for shard in client.stats()["shards"] if "error" in shard]
        log = read_events(tmp_path / "events")
        spawns = [event for event in log if event["type"] == "worker_spawn"]
        adoptions = [event for event in log if event["type"] == "checkpoint_adoption"]
        assert {event["shard"] for event in spawns} == {0, 1}
        assert {event["shard"] for event in adoptions} == {0, 1}
        # adoption joins back to its worker through the process id
        assert {event["pid"] for event in adoptions} <= {event["pid"] for event in spawns}
        assert all(event["role"].startswith("shard") for event in spawns)

    def test_without_an_event_log_the_envelope_keeps_its_trace_and_no_read_reaches_a_worker(
        self, tmp_path, frozen_model, monkeypatch
    ):
        monkeypatch.delenv(obs_events.EVENT_LOG_ENV, raising=False)
        sent = []
        send = ShardWorkerHandle.send

        def recording_send(handle, command):
            sent.append(command)
            send(handle, command)

        monkeypatch.setattr(ShardWorkerHandle, "send", recording_send)
        daemon = MatchingDaemon(tmp_path / "wal", frozen_model, num_shards=1)
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        assert daemon.ready.wait(60)
        try:
            with ServeClient(*daemon.address) as client:
                client.insert(make_profile("a1", text="alpha beta"), side=0)
                client.insert(make_profile("b1", text="alpha beta"), side=1)
            response = _raw_request(
                daemon.address,
                {"op": "match", "id": 1, "args": {}, "trace": "cafe0123beef4567"},
            )
        finally:
            daemon.request_shutdown()
            thread.join(60)
            obs_events.configure(None)
        assert response["ok"] is True
        assert response["trace"] == "cafe0123beef4567"
        assert response["result"]["retained"]
        # the match reached no worker: a worker is only ever followed or pinged
        assert {command[0] for command in sent} <= {"follow", "ping"}


class TestStatsRendering:
    def test_render_stats_includes_observability_sections(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            client.match()
            stats = client.stats()
        observability = stats["daemon"]["observability"]
        assert observability["event_log"].endswith("events")
        assert observability["slow_request_ms"] == 0.0
        assert "gauges" in stats["metrics"]
        text = render_stats(stats)
        assert "gauges:" in text
        assert "process_rss_bytes=" in text
        assert "match" in text and "p99=" in text
