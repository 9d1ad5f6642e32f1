"""Bench S5 — delta-shipped reads: per-read bytes, snapshot vs delta.

Runs the real daemon twice over the same growing workload — once with
``delta_shipping=off`` (every read ships the complete shard state, the
PR 7 behaviour) and once with ``delta_shipping=on`` (warm reads ship only
what changed) — and measures, at each growth stage, the bytes a warm
single-insert→match cycle ships plus the match latency tails.  The point
of the refactor is that delta per-read bytes stay O(changed) while full
per-read bytes grow O(state): at the largest stage a warm delta read must
ship under a quarter of the full-state bytes, with both modes answering
byte-identically.  (The bound was 5 % while a full ship carried the pair
registry, ~90 % of its bytes; since the live pairs are derived from the CSR
neither ship carries it — 1 148 kB -> 104 kB full, 17.1 -> 14.3 kB delta at
547 entities — so both numbers fell and their ratio rose to ~14 %.)

Saved to ``benchmarks/results/delta_shipping.json``.  Qualitative perf
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


def _run_mode(wal, model, first, second, stages, cycles, delta_shipping):
    """One daemon run: grow through ``stages``, measure warm read cycles.

    Each stage inserts up to the stage target on both sides, issues one
    warm-up match, then runs ``cycles`` single-insert→match cycles and
    reads the shipped-byte counters around them.  The extra profiles the
    cycles insert come after the stage targets in the same stream, so both
    modes serve the identical entity set at every point.
    """
    daemon = MatchingDaemon(
        wal, model, num_shards=2, bilateral=True, delta_shipping=delta_shipping
    )
    thread = _start(daemon)
    measured = []
    try:
        with ServeClient(*daemon.address, timeout=300.0) as client:
            cursor = 0
            for target in stages:
                while cursor < target:
                    client.insert(first[cursor], side=0)
                    client.insert(second[cursor], side=1)
                    cursor += 1
                client.match()  # warm the resident view at this stage
                before = client.stats()["metrics"]["counters"]
                latencies = []
                for _ in range(cycles):
                    client.insert(first[cursor], side=0)
                    cursor += 1
                    started = time.perf_counter()
                    client.match()
                    latencies.append(time.perf_counter() - started)
                after = client.stats()["metrics"]["counters"]
                shipped = after.get("read_bytes_shipped", 0) - before.get(
                    "read_bytes_shipped", 0
                )
                quantiles = np.quantile(latencies, (0.5, 0.99))
                measured.append(
                    {
                        "entities": int(
                            client.stats()["daemon"]["entities"]
                        ),
                        "per_read_bytes": float(shipped / cycles),
                        "delta_reads": after.get("delta_reads", 0)
                        - before.get("delta_reads", 0),
                        "full_reads": after.get("full_reads", 0)
                        - before.get("full_reads", 0),
                        "match_p50_ms": float(quantiles[0] * 1e3),
                        "match_p99_ms": float(quantiles[1] * 1e3),
                    }
                )
            answer = client.match()
    finally:
        _stop(daemon, thread)
    return measured, answer


def test_delta_shipping_bytes(full_mode, tmp_path, report_sink):
    scale = 0.3 if full_mode else 0.12
    cycles = 8 if full_mode else 5
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(
        dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0
    )
    first = _profiles(dataset.first)
    second = _profiles(dataset.second)
    # keep cycle inserts (cycles per stage, first side only) inside the stream
    usable = min(len(first) - cycles * 3, len(second))
    assert usable >= 24, "dataset scale too small for the staged workload"
    stages = [usable // 4, usable // 2, usable]

    full_runs, full_answer = _run_mode(
        tmp_path / "wal-off", model, first, second, stages, cycles, False
    )
    delta_runs, delta_answer = _run_mode(
        tmp_path / "wal-on", model, first, second, stages, cycles, True
    )

    # both modes must answer byte-identically at every point (spot-checked
    # at the end of the stream); delta shipping is a transport optimisation
    assert delta_answer["retained"] == full_answer["retained"]

    per_stage = []
    for full_run, delta_run in zip(full_runs, delta_runs):
        per_stage.append(
            {
                "entities": full_run["entities"],
                "snapshot_per_read_bytes": full_run["per_read_bytes"],
                "delta_per_read_bytes": delta_run["per_read_bytes"],
                "delta_fraction": delta_run["per_read_bytes"]
                / max(full_run["per_read_bytes"], 1e-9),
                "snapshot_match_p50_ms": full_run["match_p50_ms"],
                "snapshot_match_p99_ms": full_run["match_p99_ms"],
                "delta_match_p50_ms": delta_run["match_p50_ms"],
                "delta_match_p99_ms": delta_run["match_p99_ms"],
            }
        )
    largest = per_stage[-1]
    payload = {
        "dataset": DATASET,
        "scale": scale,
        "pruning": PRUNING,
        "shards": 2,
        "cycles_per_stage": cycles,
        "stages": per_stage,
        "largest_stage_delta_fraction": largest["delta_fraction"],
        "retained_pairs": len(full_answer["retained"]),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "delta_shipping.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [f"delta-shipped reads — {DATASET} (scale {scale}, 2 shards)"]
    for stage in per_stage:
        lines.append(
            f"  {stage['entities']:>5} entities: "
            f"snapshot {stage['snapshot_per_read_bytes']:>12,.0f} B/read, "
            f"delta {stage['delta_per_read_bytes']:>9,.0f} B/read "
            f"({stage['delta_fraction']:.2%}); "
            f"match p50 {stage['snapshot_match_p50_ms']:.1f}→"
            f"{stage['delta_match_p50_ms']:.1f}ms, "
            f"p99 {stage['snapshot_match_p99_ms']:.1f}→"
            f"{stage['delta_match_p99_ms']:.1f}ms"
        )
    report_sink("delta_shipping", "\n".join(lines))

    # Structural expectations that hold on any machine.
    for full_run, delta_run in zip(full_runs, delta_runs):
        assert full_run["delta_reads"] == 0, "off mode must never ship deltas"
        # warm cycles after the stage's first read ship deltas (a respawned
        # worker mid-bench could force an occasional full re-ship)
        assert delta_run["delta_reads"] >= cycles
    # Qualitative claim (REPRO_SKIP_PERF=1 downgrades on noisy runners):
    # after a warm read, a single-insert step ships under a quarter of the
    # bytes a full-state read ships at the same state size.
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert largest["delta_fraction"] < 0.25, (
            f"warm delta reads ship {largest['delta_fraction']:.1%} of the "
            "full-state bytes; expected under 25%"
        )
