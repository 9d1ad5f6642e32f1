"""Unit tests for request tracing (``repro.obs.trace``)."""

import threading

import pytest

from repro.obs.trace import (
    RequestTrace,
    activate,
    current_trace,
    hook_span,
    mint_trace_id,
)


class TestMint:
    def test_ids_are_16_hex_and_unique(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            assert len(trace_id) == 16
            int(trace_id, 16)


class TestSpanTree:
    def test_nesting_and_tags(self):
        trace = RequestTrace("abc", "match")
        with trace.span("outer", shards=2):
            with trace.span("inner"):
                pass
            trace.add_span("measured", 1.5, kind="delta")
        tree = trace.finish()
        assert tree["name"] == "match"
        (outer,) = tree["children"]
        assert outer["name"] == "outer"
        assert outer["tags"] == {"shards": 2}
        assert [child["name"] for child in outer["children"]] == [
            "inner", "measured",
        ]
        measured = outer["children"][1]
        assert measured["ms"] == 1.5
        assert measured["tags"] == {"kind": "delta"}
        assert tree["ms"] >= outer["ms"] >= 0.0

    def test_disabled_trace_records_nothing_and_costs_nothing(self):
        trace = RequestTrace("abc", "match", enabled=False)
        with trace.span("outer") as span:
            assert span is None
        trace.add_span("x", 1.0)
        assert trace.finish() is None

    def test_a_span_an_exception_leaves_is_closed_and_unwound(self):
        """An error response carries its trace too: the failed span keeps
        its duration, and later spans nest at its parent again."""
        trace = RequestTrace("abc", "insert")
        with pytest.raises(KeyError):
            with trace.span("mutate"):
                with trace.span("wal-append"):
                    raise KeyError("duplicate")
        trace.add_span("queue-wait", 0.25)
        tree = trace.finish()
        mutate, queue_wait = tree["children"]
        assert mutate["name"] == "mutate" and queue_wait["name"] == "queue-wait"
        (append,) = mutate["children"]
        assert append["name"] == "wal-append"
        assert mutate["ms"] >= append["ms"] >= 0.0
        assert tree["ms"] >= mutate["ms"]

    def test_trees_are_json_serializable(self):
        import json

        trace = RequestTrace("abc", "match")
        with trace.span("score-and-prune", shared=False):
            trace.add_span("merge-pairs", 0.5, rows=3)
        json.dumps(trace.finish())


class TestActivation:
    def test_hook_span_attributes_to_the_active_trace(self):
        trace = RequestTrace("abc", "insert")
        with activate(trace):
            assert current_trace() is trace
            with hook_span("wal-append", bytes=10):
                pass
        assert current_trace() is None
        tree = trace.finish()
        (span,) = tree["children"]
        assert span["name"] == "wal-append"
        assert span["tags"] == {"bytes": 10}

    def test_hook_span_is_a_noop_without_an_active_trace(self):
        with hook_span("wal-append"):
            pass  # must not raise

    def test_hook_span_is_a_noop_against_a_disabled_trace(self):
        trace = RequestTrace("abc", "insert", enabled=False)
        with activate(trace):
            with hook_span("wal-append"):
                pass
        assert trace.finish() is None

    def test_activation_restores_the_previous_trace(self):
        outer = RequestTrace("o", "a")
        inner = RequestTrace("i", "b")
        with activate(outer):
            with activate(inner):
                assert current_trace() is inner
            assert current_trace() is outer

    def test_activation_is_thread_local(self):
        trace = RequestTrace("abc", "match")
        seen = {}

        def probe():
            seen["other_thread"] = current_trace()

        with activate(trace):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen["other_thread"] is None
