"""Unit tests for the structured event log (``repro.obs.events``)."""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.obs import events
from repro.obs.render import render_event, render_event_summary, render_span_tree


@pytest.fixture(autouse=True)
def _isolated_sink(monkeypatch):
    """Each test starts unconfigured and leaves no sink/env behind."""
    monkeypatch.delenv(events.EVENT_LOG_ENV, raising=False)
    events.configure(None, role="main")
    yield
    events.configure(None, role="main")


class TestSink:
    def test_emit_is_a_noop_when_unconfigured(self, tmp_path):
        events.emit("request", op="match")
        assert list(tmp_path.glob("events-*")) == []

    def test_round_trip_with_envelope_fields(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.emit("request", trace="abc", op="match", ok=True)
        events.emit("wal_append", offset=10, bytes=5)
        log = events.read_events(tmp_path)
        assert [event["type"] for event in log] == ["request", "wal_append"]
        first = log[0]
        assert first["role"] == "daemon"
        assert first["pid"] == os.getpid()
        assert first["seq"] == 1
        assert first["trace"] == "abc" and first["ok"] is True
        assert log[1]["seq"] == 2

    def test_configure_exports_and_clears_the_env(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        assert os.environ[events.EVENT_LOG_ENV] == str(tmp_path)
        events.configure(None)
        assert events.EVENT_LOG_ENV not in os.environ
        events.emit("request")  # disabled again
        assert events.read_events(tmp_path) == []

    def test_env_is_resolved_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv(events.EVENT_LOG_ENV, str(tmp_path))
        events.configure(None, export_env=False)  # forget, then re-resolve
        monkeypatch.setenv(events.EVENT_LOG_ENV, str(tmp_path))
        assert events.configured_dir() is None  # explicit None wins until reset
        # a fresh process (simulated by reconfiguring from the env) sees it
        events.configure(tmp_path, export_env=False)
        events.emit("probe")
        assert events.read_events(tmp_path)[0]["type"] == "probe"

    def test_per_role_files(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.emit("a")
        events.set_role("shard0")
        events.emit("b")
        names = sorted(path.name for path in tmp_path.glob("events-*.jsonl"))
        pid = os.getpid()
        assert names == [
            f"events-daemon-{pid}.jsonl", f"events-shard0-{pid}.jsonl",
        ]
        log = events.read_events(tmp_path)
        assert [(e["role"], e["type"]) for e in log] == [
            ("daemon", "a"), ("shard0", "b"),
        ]

    def test_torn_final_line_is_dropped(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.emit("kept", n=1)
        path = next(tmp_path.glob("events-*.jsonl"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 1.0, "type": "torn", "pa')  # killed mid-write
        log = events.read_events(tmp_path)
        assert [event["type"] for event in log] == ["kept"]

    def test_merge_orders_across_processes_by_ts_then_seq(self, tmp_path):
        (tmp_path / "events-daemon-100.jsonl").write_text(
            json.dumps({"ts": 2.0, "seq": 1, "pid": 100, "type": "late"}) + "\n"
            + json.dumps({"ts": 2.0, "seq": 2, "pid": 100, "type": "later"}) + "\n"
        )
        (tmp_path / "events-shard0-200.jsonl").write_text(
            json.dumps({"ts": 1.0, "seq": 1, "pid": 200, "type": "early"}) + "\n"
        )
        log = events.read_events(tmp_path)
        assert [event["type"] for event in log] == ["early", "late", "later"]

    def test_unserializable_fields_degrade_to_strings(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.emit("weird", path=tmp_path)  # Path is not JSON-native
        (event,) = events.read_events(tmp_path)
        assert event["path"] == str(tmp_path)

    def test_a_worker_forked_while_another_thread_emits_can_emit(self, tmp_path):
        """A shard worker is forked from a daemon whose other threads emit:
        the fork must not hand the child the sink's lock held by a thread
        that does not exist there, or its first event blocks for good."""
        events.configure(tmp_path, role="daemon")
        held = threading.Event()

        def emitter():
            with events._lock:
                held.set()
                time.sleep(0.2)

        def worker():
            events.set_role("shard0")
            events.emit("worker_spawn")

        thread = threading.Thread(target=emitter)
        thread.start()
        held.wait(5)
        child = multiprocessing.get_context("fork").Process(target=worker)
        child.start()
        child.join(10)
        thread.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
            pytest.fail("the forked worker blocked on the event sink's lock")
        assert child.exitcode == 0
        assert [(e["role"], e["type"]) for e in events.read_events(tmp_path)] == [
            ("shard0", "worker_spawn")
        ]


class TestSummary:
    def test_summarize_counts_and_slowest(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.emit("request", trace="t1", op="match", ok=True, duration_ms=5.0)
        events.emit("request", trace="t2", op="insert", ok=False, duration_ms=9.0)
        events.emit("wal_append", offset=1, bytes=2)
        summary = events.summarize_events(events.read_events(tmp_path))
        assert summary["events"] == 3
        assert summary["by_type"] == {"request": 2, "wal_append": 1}
        assert summary["requests"] == {"total": 2, "ok": 1, "failed": 1}
        assert [e["trace"] for e in summary["slowest"]] == ["t2", "t1"]
        # and the renderers accept what the summarizer produces
        assert "2 total, 1 ok, 1 failed" in render_event_summary(summary)


class TestLoggingBridge:
    def test_logger_records_become_log_events_with_trace_and_traceback(
        self, tmp_path
    ):
        events.configure(tmp_path, role="daemon")
        logger = events.get_logger("serve.daemon")
        assert logger.name == "repro.serve.daemon"
        try:
            raise ValueError("boom")
        except ValueError:
            logger.error(
                "unhandled error serving %s", "match",
                exc_info=True, extra={"trace_id": "deadbeef"},
            )
        log = [e for e in events.read_events(tmp_path) if e["type"] == "log"]
        (event,) = log
        assert event["level"] == "ERROR"
        assert event["logger"] == "repro.serve.daemon"
        assert event["message"] == "unhandled error serving match"
        assert event["trace"] == "deadbeef"
        assert "ValueError: boom" in event["exception"]

    def test_info_records_carry_no_trace_by_default(self, tmp_path):
        events.configure(tmp_path, role="daemon")
        events.get_logger("workers").info("shard %d warmed", 3)
        (event,) = [
            e for e in events.read_events(tmp_path) if e["type"] == "log"
        ]
        assert event["message"] == "shard 3 warmed"
        assert "trace" not in event


class TestRenderers:
    def test_render_event_single_line(self):
        line = render_event(
            {"ts": 12.5, "role": "daemon", "type": "request",
             "trace": "abc", "ok": True, "spans": {"name": "x"}}
        )
        assert line.splitlines() == [line]
        assert "trace=abc" in line and "spans" not in line

    def test_render_span_tree_shape(self):
        tree = {
            "name": "match", "ms": 10.0,
            "children": [
                {"name": "fan-out", "ms": 8.0, "tags": {"shards": 2},
                 "children": [{"name": "shard0", "ms": 4.0}]},
                {"name": "score", "ms": 1.0},
            ],
        }
        text = render_span_tree(tree)
        lines = text.splitlines()
        assert lines[0].startswith("match")
        assert any("├─ fan-out" in line and "shards=2" in line for line in lines)
        assert any("└─ score" in line for line in lines)
        assert render_span_tree(None) == "(no trace recorded)"
