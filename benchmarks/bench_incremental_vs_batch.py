"""Bench S1 — incremental streaming inserts vs full batch recompute.

Streams a generated benchmark through a :class:`MatchingSession` (frozen
batch-trained classifier, per-insert delta features) and compares the cost
of serving one insert against re-running the whole batch pipeline on the
collection accumulated so far — the only alternative the batch architecture
offers for online updates.

Reported (and saved to ``benchmarks/results/incremental_vs_batch.json``):

* per-insert latency (mean / p50 / p95) and throughput;
* mean insert latency bucketed by the insert's candidate delta — per-insert
  cost grows with the delta, not with the collection;
* batch-recompute seconds at collection checkpoints vs the mean insert
  latency around each checkpoint — the speedup grows with collection size,
  i.e. per-insert cost is sub-linear in the entities already indexed.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.blocking import prepare_blocks
from repro.core import FeatureVectorGenerator, get_pruning_algorithm
from repro.datamodel import EntityCollection
from repro.datasets import load_benchmark
from repro.incremental import (
    interleave_profiles,
    replay_stream,
    train_frozen_model,
)
from repro.weights import BlockStatistics

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASET = "DblpAcm"
PRUNING = "BLAST"


def _batch_recompute_seconds(profiles_with_sides, model):
    """Time one full batch pass (blocking -> purging -> filtering -> features
    -> score -> prune): ``prepare_blocks``' defaults, the paper's pipeline the
    frozen model was trained on and the session's exact answer runs."""
    first = EntityCollection(
        [profile for profile, side in profiles_with_sides if side == 0], name="ck-1"
    )
    second = EntityCollection(
        [profile for profile, side in profiles_with_sides if side == 1], name="ck-2"
    )
    started = time.perf_counter()
    prepared = prepare_blocks(first, second)
    stats = BlockStatistics(prepared.blocks)
    matrix = FeatureVectorGenerator(model.feature_set).generate(
        prepared.candidates, stats
    )
    probabilities = model.score(matrix.values)
    if len(prepared.candidates):
        get_pruning_algorithm(PRUNING).prune(
            probabilities, prepared.candidates, prepared.blocks
        )
    return time.perf_counter() - started, len(prepared.candidates)


def _delta_buckets(delta_sizes, insert_seconds, n_buckets=4):
    """Mean insert latency per candidate-delta quartile."""
    populated = delta_sizes > 0
    if populated.sum() < n_buckets:
        return []
    deltas = delta_sizes[populated].astype(np.float64)
    seconds = insert_seconds[populated]
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
                "delta_min": float(deltas[selected].min()),
                "delta_max": float(deltas[selected].max()),
                "mean_insert_ms": float(seconds[selected].mean() * 1e3),
                "inserts": int(selected.sum()),
            }
        )
    return buckets


def test_incremental_insert_vs_batch_recompute(benchmark, full_mode, report_sink):
    """Per-insert cost tracks the candidate delta and beats batch recompute."""
    scale = 0.6 if full_mode else 0.25
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0)

    replay = benchmark.pedantic(
        replay_stream,
        args=(dataset, model),
        kwargs=dict(pruning=PRUNING),
        rounds=1,
        iterations=1,
    )
    mean, p50, p95 = replay.latency_percentiles()

    stream_order = list(interleave_profiles(dataset.first, dataset.second))
    checkpoints = []
    for fraction in (0.25, 0.5, 0.75, 1.0):
        upto = max(4, int(round(fraction * len(stream_order))))
        batch_seconds, n_pairs = _batch_recompute_seconds(stream_order[:upto], model)
        window = replay.insert_seconds[max(0, upto - 50) : upto]
        checkpoints.append(
            {
                "entities": upto,
                "candidate_pairs": int(n_pairs),
                "batch_recompute_seconds": float(batch_seconds),
                "mean_insert_ms_near_checkpoint": float(window.mean() * 1e3),
                "batch_over_insert_speedup": float(
                    batch_seconds / max(window.mean(), 1e-12)
                ),
            }
        )

    buckets = _delta_buckets(replay.delta_sizes, replay.insert_seconds)
    payload = {
        "dataset": DATASET,
        "scale": scale,
        "pruning": PRUNING,
        "inserts": replay.num_inserts,
        "candidate_pairs": int(replay.session.num_pairs),
        "mean_insert_ms": mean * 1e3,
        "p50_insert_ms": p50 * 1e3,
        "p95_insert_ms": p95 * 1e3,
        "throughput_inserts_per_s": replay.throughput,
        "delta_vs_latency_correlation": float(
            np.corrcoef(replay.delta_sizes, replay.insert_seconds)[0, 1]
        )
        if replay.num_inserts > 2
        else 0.0,
        "delta_buckets": buckets,
        "checkpoints": checkpoints,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "incremental_vs_batch.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"Incremental streaming vs batch recompute — {DATASET} (scale {scale})",
        f"  {replay.num_inserts} inserts, {payload['candidate_pairs']} pairs, "
        f"mean={mean * 1e3:.3f}ms p95={p95 * 1e3:.3f}ms "
        f"({replay.throughput:,.0f} inserts/s)",
        "  per-insert latency by candidate-delta quartile:",
    ]
    for bucket in buckets:
        lines.append(
            f"    delta {bucket['delta_min']:>6.0f}..{bucket['delta_max']:>6.0f}: "
            f"{bucket['mean_insert_ms']:.3f}ms over {bucket['inserts']} inserts"
        )
    lines.append("  batch recompute vs insert latency at checkpoints:")
    for checkpoint in checkpoints:
        lines.append(
            f"    {checkpoint['entities']:>5} entities: batch "
            f"{checkpoint['batch_recompute_seconds']:.3f}s vs insert "
            f"{checkpoint['mean_insert_ms_near_checkpoint']:.3f}ms "
            f"({checkpoint['batch_over_insert_speedup']:,.0f}x)"
        )
    report_sink("incremental_vs_batch", "\n".join(lines))

    # Structural expectations that hold on any machine.
    assert len(buckets) >= 2
    speedups = [c["batch_over_insert_speedup"] for c in checkpoints]
    assert all(s > 0.0 for s in speedups)
    # Qualitative timing claims (the bench's point, but wall-clock-sensitive;
    # REPRO_SKIP_PERF=1 downgrades them to measurements on noisy shared
    # runners, matching the tier-1 perf-smoke convention):
    # (1) per-insert cost grows with the insert's candidate delta, and
    # (2) it is sub-linear in collection size — serving an insert beats a
    #     full batch recompute, increasingly so as the collection grows.
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert buckets[-1]["mean_insert_ms"] > buckets[0]["mean_insert_ms"]
        assert all(s > 1.0 for s in speedups)
        assert speedups[-1] > speedups[0]
