"""Integration tests for observability on the live serving path.

One in-process daemon per test class, with tracing on, an event-log
directory, and a zero slow-request threshold, exercising:

* trace ids — client-supplied ids echoed back, server-minted ids for
  old (v1-style) envelopes that carry none;
* the ``metrics`` protocol op (Prometheus text exposition) and the
  process gauges behind it;
* request events in the structured log, with span trees that cross the
  dispatch threads, the WAL and the shard-worker processes;
* ``render_stats`` of a live ``stats`` payload (including the new
  gauges line).
"""

import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV, FaultPlan
from repro.obs import events as obs_events
from repro.obs import read_events, render_stats
from repro.serve import MatchingDaemon, ServeClient
from repro.serve.protocol import read_message_from, write_message_to


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


def _await_followed(client):
    """The ``metrics`` half of the first ``stats`` in which no shard lags."""
    deadline = time.monotonic() + 30
    while True:
        stats = client.stats()["metrics"]
        lags = [
            stats["gauges"][f"shard{shard}_replica_lag_records"] for shard in (0, 1)
        ]
        if lags == [0.0, 0.0]:
            return stats
        assert time.monotonic() < deadline, f"never followed: lag {lags}"
        time.sleep(0.02)


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
            # no read yet, and none is needed: the follower replays each
            # write on the workers as it is acked, and its acks — not "writes
            # since the last ship" — are what the gauge subtracts
            stats = _await_followed(client)
            assert stats["operations"].get("match") is None
            # the follow fan-outs are an operation like any other: count, mean
            follows = stats["operations"]["replica_follow"]
            assert 1 <= follows["count"] <= 2 and follows["errors"] == 0
            assert follows["mean_ms"] > 0
            client.match()  # ships both shards at the pinned serial
            gauges = client.stats()["metrics"]["gauges"]
            assert gauges["shard0_replica_lag_records"] == 0.0
            assert gauges["shard1_replica_lag_records"] == 0.0

    def test_a_respawned_worker_lags_until_it_is_followed(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            _await_followed(client)  # no follow is left in flight to ack late
            assert obs_daemon.router.respawn(0) is not None
            gauges = client.stats()["metrics"]["gauges"]
            # the replacement has acknowledged nothing yet; its peer has
            assert gauges["shard0_replica_lag_records"] == 1.0
            assert gauges["shard1_replica_lag_records"] == 0.0
            client.match()
            gauges = client.stats()["metrics"]["gauges"]
            assert gauges["shard0_replica_lag_records"] == 0.0


class TestRequestEvents:
    def test_request_events_reconstruct_span_trees_across_processes(
        self, obs_daemon, tmp_path
    ):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            insert_trace = client.last_trace_id
            client.insert(make_profile("b1", text="alpha beta"), side=1)
            client.match()
            match_trace = client.last_trace_id
            client.top_k("a1", side=0)
            top_k_trace = client.last_trace_id
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
        # the read's span tree crosses into both worker processes
        match_spans = _span_names(requests[match_trace]["spans"])
        assert {
            "match", "fan-out", "shard0", "shard1",
            "catch-up", "export", "view-apply", "score-and-prune",
        } <= match_spans
        # the answer itself is split into its stages, once each per request
        (answer_span,) = _find_spans(
            requests[match_trace]["spans"], "score-and-prune"
        )
        assert [child["name"] for child in answer_span["children"]] == [
            "merge-pairs", "features", "score", "prune",
        ]
        (top_k_span,) = _find_spans(requests[top_k_trace]["spans"], "score-top-k")
        assert [child["name"] for child in top_k_span["children"]] == [
            "merge-pairs", "features", "score",
        ]
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
                deadline = time.monotonic() + 30
                while True:
                    log = read_events(tmp_path / "events")
                    errors = [
                        event for event in log
                        if event["type"] == "replica_follow_error"
                    ]
                    if errors and any(
                        event["type"] == "worker_respawn" for event in log
                    ):
                        break
                    assert time.monotonic() < deadline, (
                        "the failed follow left no event, or its worker no heir"
                    )
                    time.sleep(0.02)
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
            client.ping()
        # workers journal their spawn/adoption asynchronously while they
        # bootstrap; wait for both shards to have reported
        deadline = time.monotonic() + 30
        while True:
            log = read_events(tmp_path / "events")
            spawns = [
                event for event in log if event["type"] == "worker_spawn"
            ]
            adoptions = [
                event for event in log if event["type"] == "checkpoint_adoption"
            ]
            if (
                {event["shard"] for event in spawns}
                == {event["shard"] for event in adoptions}
                == {0, 1}
            ):
                break
            assert time.monotonic() < deadline, "worker lifecycle not journaled"
            time.sleep(0.05)
        assert {event["shard"] for event in spawns} == {0, 1}
        assert {event["shard"] for event in adoptions} == {0, 1}
        # adoption joins back to its worker through the lineage token
        lineages = {event["lineage"] for event in spawns}
        assert all(event["lineage"] in lineages for event in adoptions)
        assert all(event["role"].startswith("shard") for event in spawns)

    def test_tracing_off_keeps_the_envelope_but_drops_spans(
        self, tmp_path, frozen_model
    ):
        daemon = MatchingDaemon(
            tmp_path / "wal",
            frozen_model,
            num_shards=1,
            event_log=tmp_path / "events",
            tracing=False,
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        assert daemon.ready.wait(60)
        try:
            with ServeClient(*daemon.address) as client:
                client.insert(make_profile("a1", text="alpha beta"), side=0)
                client.match()
                trace = client.last_trace_id
        finally:
            daemon.request_shutdown()
            thread.join(60)
            obs_events.configure(None)
        log = read_events(tmp_path / "events")
        (request,) = [
            event
            for event in log
            if event["type"] == "request" and event["trace"] == trace
        ]
        assert request["ok"] is True
        assert "spans" not in request


class TestStatsRendering:
    def test_render_stats_includes_observability_sections(self, obs_daemon):
        with ServeClient(*obs_daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            client.match()
            stats = client.stats()
        observability = stats["daemon"]["observability"]
        assert observability["tracing"] == "on"
        assert observability["event_log"].endswith("events")
        assert observability["slow_request_ms"] == 0.0
        assert "gauges" in stats["metrics"]
        text = render_stats(stats)
        assert "gauges:" in text
        assert "process_rss_bytes=" in text
        assert "match" in text and "p99=" in text
