"""Bench S8 — observability overhead: the event log and its span trees, on vs off.

Runs the real daemon twice over the same workload — once with no event
log (the bare serving path: no request records a span) and once with a
JSON-lines event log attached (every request records and journals its span
tree) — and measures ingest throughput (profiles/s over the full bulk
stream) and warm match latency tails in both modes.  The observability
subsystem is built to be cheap enough to leave on in production: with perf
assertions armed, the event log and its span trees must cost under 10% of
both ingest throughput and match p99.

The instrumented run is also checked structurally: its event log must
actually contain a request event for every timed request, so the bench
cannot silently measure an unconfigured sink.

Saved to ``benchmarks/results/obs_overhead.json``.  Qualitative perf
assertions are downgraded to measurements with ``REPRO_SKIP_PERF=1``.
"""

import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_benchmark
from repro.incremental import train_frozen_model
from repro.obs import events as obs_events
from repro.serve import MatchingDaemon, ServeClient

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASET = "DblpAcm"
PRUNING = "BLAST"


def _profiles(collection):
    return [
        {"entity_id": p.entity_id, "attributes": dict(p.attributes)}
        for p in collection
    ]


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(120), "daemon did not come up"
    return thread


def _stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(120)
    assert not thread.is_alive(), "daemon did not shut down"


def _run_mode(wal, model, first, second, matches, event_dir):
    """One daemon run: bulk ingest, one warm-up match, timed match cycles.

    ``event_dir`` selects the mode: ``None`` runs bare (no event log, so
    no spans), a path runs fully instrumented (event log attached, every
    span tree journaled).
    """
    daemon = MatchingDaemon(
        wal, model, num_shards=2, bilateral=True, event_log=event_dir
    )
    thread = _start(daemon)
    try:
        with ServeClient(*daemon.address, timeout=300.0) as client:
            started = time.perf_counter()
            for left, right in zip(first, second):
                client.insert(left, side=0)
                client.insert(right, side=1)
            ingest_seconds = time.perf_counter() - started
            client.match()  # warm the resident views
            latencies = []
            for _ in range(matches):
                cycle = time.perf_counter()
                client.match()
                latencies.append(time.perf_counter() - cycle)
    finally:
        _stop(daemon, thread)
        obs_events.configure(None)
    quantiles = np.quantile(latencies, (0.5, 0.99))
    ingested = 2 * len(first)
    return {
        "ingest_profiles": ingested,
        "ingest_rate_per_s": float(ingested / ingest_seconds),
        "match_p50_ms": float(quantiles[0] * 1e3),
        "match_p99_ms": float(quantiles[1] * 1e3),
        "timed_matches": matches,
    }


def test_observability_overhead(full_mode, tmp_path, report_sink, monkeypatch):
    # a stray sink inherited from the environment would instrument the
    # "off" run too and hide the very overhead this bench measures
    monkeypatch.delenv(obs_events.EVENT_LOG_ENV, raising=False)
    obs_events.configure(None)

    scale = 0.25 if full_mode else 0.1
    matches = 80 if full_mode else 40
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(
        dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0
    )
    first = _profiles(dataset.first)
    second = _profiles(dataset.second)
    usable = min(len(first), len(second))
    first, second = first[:usable], second[:usable]

    off = _run_mode(tmp_path / "wal-off", model, first, second, matches, None)
    event_dir = tmp_path / "events"
    on = _run_mode(tmp_path / "wal-on", model, first, second, matches, event_dir)

    # the instrumented run really journaled its requests: one request
    # event per insert + warm-up + timed match (plus daemon lifecycle)
    requests = [
        event
        for event in obs_events.read_events(event_dir)
        if event["type"] == "request"
    ]
    assert len(requests) >= 2 * usable + 1 + matches
    assert all("spans" in event for event in requests if event["op"] == "match")

    ingest_overhead = 1.0 - on["ingest_rate_per_s"] / off["ingest_rate_per_s"]
    p99_overhead = on["match_p99_ms"] / off["match_p99_ms"] - 1.0
    payload = {
        "dataset": DATASET,
        "scale": scale,
        "shards": 2,
        "off": off,
        "on": on,
        "ingest_overhead": ingest_overhead,
        "match_p99_overhead": p99_overhead,
        "request_events_journaled": len(requests),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "obs_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report_sink(
        "obs_overhead",
        "\n".join(
            [
                f"observability overhead — {DATASET} (scale {scale}, 2 shards)",
                f"  ingest: {off['ingest_rate_per_s']:,.0f} → "
                f"{on['ingest_rate_per_s']:,.0f} profiles/s "
                f"({ingest_overhead:+.1%})",
                f"  match p50: {off['match_p50_ms']:.2f} → "
                f"{on['match_p50_ms']:.2f} ms",
                f"  match p99: {off['match_p99_ms']:.2f} → "
                f"{on['match_p99_ms']:.2f} ms ({p99_overhead:+.1%})",
                f"  request events journaled: {len(requests)}",
            ]
        ),
    )

    # Qualitative claim (REPRO_SKIP_PERF=1 downgrades on noisy runners):
    # full observability costs under 10% of ingest throughput and match
    # p99 versus the bare serving path.
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert ingest_overhead < 0.10, (
            f"the event log and its spans cost {ingest_overhead:.1%} of ingest "
            "throughput; expected under 10%"
        )
        assert p99_overhead < 0.10, (
            f"the event log and its spans cost {p99_overhead:.1%} of match p99; "
            "expected under 10%"
        )
