"""One serving configuration: how the daemon ships, degrades and traces a
read is no longer a switch.

Reads always ship deltas when the router holds a base; ``match`` /
``top_k`` always fall back to the authority when the fleet fails; a request
records its span tree exactly when the daemon journals events.  The
switches, their flags and the knobs only tests set stay gone by the rows of
``tests/test_guards.py``; a live daemon shows the rest.
"""

import threading
from contextlib import contextmanager

import pytest

from reference import make_frozen_model
from repro.datamodel import make_profile
from repro.obs import events as obs_events
from repro.obs import read_events
from repro.serve import MatchingDaemon, ServeClient
from repro.serve import daemon as daemon_module

pytestmark = pytest.mark.equivalence


class _RecordedTrace(daemon_module.RequestTrace):
    """A request trace that keeps what :meth:`finish` returned."""

    finished = []

    def finish(self):
        tree = super().finish()
        self.finished.append((self.op, tree))
        return tree


@contextmanager
def _serving(tmp_path, event_log, monkeypatch):
    monkeypatch.delenv(obs_events.EVENT_LOG_ENV, raising=False)
    monkeypatch.setattr(daemon_module, "RequestTrace", _RecordedTrace)
    monkeypatch.setattr(_RecordedTrace, "finished", [])
    daemon = MatchingDaemon(
        tmp_path / "wal", make_frozen_model(), num_shards=2, event_log=event_log
    )
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    try:
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a1", text="alpha beta"), side=0)
            client.insert(make_profile("b1", text="alpha beta"), side=1)
            client.match()
            yield client
    finally:
        daemon.request_shutdown()
        thread.join(60)
        assert not thread.is_alive()
        obs_events.configure(None)


def _span_names(tree):
    names = {tree["name"]}
    for child in tree.get("children", ()):
        names |= _span_names(child)
    return names


def test_the_stats_reply_names_no_switch(tmp_path, monkeypatch):
    with _serving(tmp_path, None, monkeypatch) as client:
        daemon = client.stats()["daemon"]
    assert "delta_shipping" not in daemon
    assert "degraded_reads" not in daemon["supervision"]
    assert "tracing" not in daemon["observability"]


def test_a_daemon_with_an_event_log_journals_span_trees_with_worker_grafts(
    tmp_path, monkeypatch
):
    with _serving(tmp_path, tmp_path / "events", monkeypatch) as client:
        trace = client.last_trace_id
    trees = [tree for op, tree in _RecordedTrace.finished if op == "match"]
    assert trees and all(tree is not None for tree in trees)
    (request,) = [
        event
        for event in read_events(tmp_path / "events")
        if event["type"] == "request" and event["trace"] == trace
    ]
    assert {"fan-out", "shard0", "shard1", "catch-up", "export"} <= _span_names(
        request["spans"]
    )


def test_a_daemon_without_an_event_log_records_no_span(tmp_path, monkeypatch):
    with _serving(tmp_path, None, monkeypatch):
        pass
    ops = [op for op, _ in _RecordedTrace.finished]
    assert {"insert", "match"} <= set(ops)
    assert all(tree is None for _, tree in _RecordedTrace.finished)
