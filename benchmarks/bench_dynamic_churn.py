"""Bench S2 — dynamic churn: per-delete latency and bulk-load speedup.

Exercises the fully dynamic :class:`repro.incremental.MutableBlockIndex` on
a scaled generated benchmark:

* a delete-heavy session replay (30% churn) measuring per-*delete* latency
  bucketed by the retraction delta — removal cost tracks the number of dead
  pairs, not the collection size, mirroring the per-insert claim of the
  incremental bench;
* the same collection loaded through ``add_entities_bulk`` (one array pass
  per side) vs one ``add_entity`` call per profile — the bulk path amortises
  the per-insert Python overhead and must be at least 5x faster.

Reported (and saved to ``benchmarks/results/dynamic_churn.json``).
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_benchmark
from repro.incremental import (
    MutableBlockIndex,
    replay_stream,
    train_frozen_model,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASET = "DblpAcm"
PRUNING = "BLAST"
DELETE_FRACTION = 0.3


def _retraction_buckets(retraction_sizes, delete_seconds, n_buckets=4):
    """Mean delete latency per retraction-delta quartile."""
    populated = retraction_sizes > 0
    if populated.sum() < n_buckets:
        return []
    deltas = retraction_sizes[populated].astype(np.float64)
    seconds = delete_seconds[populated]
    edges = np.quantile(deltas, np.linspace(0.0, 1.0, n_buckets + 1))
    buckets = []
    for k in range(n_buckets):
        low, high = edges[k], edges[k + 1]
        selected = (
            (deltas >= low) & (deltas <= high)
            if k == n_buckets - 1
            else (deltas >= low) & (deltas < high)
        )
        if not np.any(selected):
            continue
        buckets.append(
            {
                "retraction_min": float(deltas[selected].min()),
                "retraction_max": float(deltas[selected].max()),
                "mean_delete_ms": float(seconds[selected].mean() * 1e3),
                "deletes": int(selected.sum()),
            }
        )
    return buckets


def _time_sequential_load(dataset):
    index = MutableBlockIndex(bilateral=True)
    started = time.perf_counter()
    for side, collection in enumerate((dataset.first, dataset.second)):
        for profile in collection:
            index.add_entity(profile, side=side)
    return time.perf_counter() - started, index


def _time_bulk_load(dataset):
    index = MutableBlockIndex(bilateral=True)
    started = time.perf_counter()
    index.add_entities_bulk(list(dataset.first), side=0)
    index.add_entities_bulk(list(dataset.second), side=1)
    return time.perf_counter() - started, index


def test_dynamic_churn_and_bulk_load(benchmark, full_mode, report_sink):
    """Per-delete cost tracks the retraction delta; bulk load beats 1-by-1."""
    scale = 0.6 if full_mode else 0.3
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0)

    replay = benchmark.pedantic(
        replay_stream,
        args=(dataset, model),
        kwargs=dict(pruning=PRUNING, delete_fraction=DELETE_FRACTION, churn_seed=7),
        rounds=1,
        iterations=1,
    )
    assert replay.num_deletes > 0
    buckets = _retraction_buckets(replay.retraction_sizes, replay.delete_seconds)

    # bulk load vs one-at-a-time inserts (repeat and keep the best of 3 to
    # damp shared-runner noise; both paths get the same treatment)
    sequential_seconds = min(_time_sequential_load(dataset)[0] for _ in range(3))
    bulk_seconds, bulk_index = min(
        (_time_bulk_load(dataset) for _ in range(3)), key=lambda pair: pair[0]
    )
    _, sequential_index = _time_sequential_load(dataset)
    assert bulk_index.num_pairs == sequential_index.num_pairs
    assert bulk_index.total_cardinality == sequential_index.total_cardinality
    speedup = sequential_seconds / max(bulk_seconds, 1e-12)

    payload = {
        "dataset": DATASET,
        "scale": scale,
        "pruning": PRUNING,
        "delete_fraction": DELETE_FRACTION,
        "inserts": replay.num_inserts,
        "deletes": replay.num_deletes,
        "retracted_pairs": int(replay.retraction_sizes.sum()),
        "live_pairs": int(replay.session.num_pairs),
        "mean_insert_ms": float(replay.insert_seconds.mean() * 1e3),
        "mean_delete_ms": float(replay.delete_seconds.mean() * 1e3),
        "p95_delete_ms": float(np.percentile(replay.delete_seconds, 95) * 1e3),
        "retraction_vs_latency_correlation": float(
            np.corrcoef(replay.retraction_sizes, replay.delete_seconds)[0, 1]
        )
        if replay.num_deletes > 2
        else 0.0,
        "retraction_buckets": buckets,
        "sequential_load_seconds": float(sequential_seconds),
        "bulk_load_seconds": float(bulk_seconds),
        "bulk_over_sequential_speedup": float(speedup),
        "bulk_entities": int(len(dataset.first) + len(dataset.second)),
        "bulk_candidate_pairs": int(bulk_index.num_pairs),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "dynamic_churn.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"Dynamic churn — {DATASET} (scale {scale}, {DELETE_FRACTION:.0%} deletes)",
        f"  {replay.num_inserts} inserts / {replay.num_deletes} deletes, "
        f"{payload['retracted_pairs']} pairs retracted, "
        f"{payload['live_pairs']} live pairs at the end",
        f"  per-delete latency: mean={payload['mean_delete_ms']:.3f}ms "
        f"p95={payload['p95_delete_ms']:.3f}ms "
        f"(insert mean {payload['mean_insert_ms']:.3f}ms)",
        "  per-delete latency by retraction-delta quartile:",
    ]
    for bucket in buckets:
        lines.append(
            f"    retraction {bucket['retraction_min']:>6.0f}.."
            f"{bucket['retraction_max']:>6.0f}: "
            f"{bucket['mean_delete_ms']:.3f}ms over {bucket['deletes']} deletes"
        )
    lines.append(
        f"  bulk load: {payload['bulk_entities']} entities in "
        f"{bulk_seconds:.3f}s vs {sequential_seconds:.3f}s one-at-a-time "
        f"({speedup:.1f}x)"
    )
    report_sink("dynamic_churn", "\n".join(lines))

    # Structural expectations that hold on any machine.
    assert len(buckets) >= 2
    assert speedup > 0.0
    # Qualitative timing claims (wall-clock-sensitive; REPRO_SKIP_PERF=1
    # downgrades them to measurements on noisy shared runners):
    # (1) per-delete cost grows with the retraction delta, and
    # (2) the one-pass bulk load amortises per-insert overhead >= 5x.
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert buckets[-1]["mean_delete_ms"] > buckets[0]["mean_delete_ms"]
        assert speedup >= 5.0
