"""Bench S3 — WAL durability: journaling overhead and recovery speed.

Streams a scaled generated benchmark through a :class:`MatchingSession`
three ways — no WAL, ``sync="batch"`` and ``sync="always"`` — and measures
the per-insert cost of journaling.  The ``sync="always"`` log is then
truncated at 25%, 50% and 100% of its record boundaries and each copy is
recovered with :func:`repro.persistence.recover_index`, timing the
snapshot-plus-replay path and asserting the recovered canonical state
equals a fresh index that applied exactly the surviving records.  The full
log is also recovered as a *session* and must reproduce the live retained
set and online threshold exactly.

Reported (and saved to ``benchmarks/results/wal_recovery.json``).
"""

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import load_benchmark
from repro.incremental import replay_stream, train_frozen_model
from repro.persistence import (
    WriteAheadLog,
    apply_logged_record,
    construct_index,
    recover_index,
    recover_session,
)

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASET = "DblpAcm"
PRUNING = "BLAST"
DELETE_FRACTION = 0.1
TRUNCATION_FRACTIONS = (0.25, 0.5, 1.0)


def _stream_once(dataset, model, wal_path=None, wal_sync="always"):
    replay = replay_stream(
        dataset,
        model,
        pruning=PRUNING,
        delete_fraction=DELETE_FRACTION,
        churn_seed=7,
        wal_path=wal_path,
        wal_sync=wal_sync,
    )
    if wal_path is not None:
        replay.session.close()
    return replay


def _canonical_pairs(index):
    candidates = index.candidate_set().canonical
    return set(zip(candidates.left.tolist(), candidates.right.tolist()))


def _reference_for_prefix(records):
    """A fresh index holding exactly the logical prefix of the log."""
    meta = records[0]
    assert meta["op"] == "meta"
    index = construct_index(meta)
    for record in records[1:]:
        apply_logged_record(index, record)
    return index


def _truncated_recoveries(wal_dir, work_dir):
    """Recover the log truncated at fractions of its record boundaries."""
    scan = WriteAheadLog(wal_dir).scan()
    full = (wal_dir / "wal.log").read_bytes()
    points = []
    for fraction in TRUNCATION_FRACTIONS:
        last = max(1, int(round(fraction * len(scan.records))))
        cut = scan.records[last - 1].end
        crash_dir = work_dir / f"crash-{int(fraction * 100)}"
        shutil.rmtree(crash_dir, ignore_errors=True)
        crash_dir.mkdir(parents=True)
        (crash_dir / "wal.log").write_bytes(full[:cut])
        for path in WriteAheadLog(wal_dir).snapshot_paths():
            snapshot = WriteAheadLog(wal_dir).load_snapshot(path)
            if snapshot is not None and int(snapshot["log_offset"]) <= cut:
                shutil.copy(path, crash_dir / path.name)
        started = time.perf_counter()
        recovered = recover_index(crash_dir)
        seconds = time.perf_counter() - started
        surviving = [entry.record for entry in scan.records if entry.end <= cut]
        reference = _reference_for_prefix(surviving)
        assert recovered.num_entities == reference.num_entities
        assert _canonical_pairs(recovered) == _canonical_pairs(reference)
        points.append(
            {
                "fraction": fraction,
                "records_replayed": len(surviving),
                "live_entities": int(recovered.num_entities),
                "recover_seconds": float(seconds),
            }
        )
    return points


def test_wal_overhead_and_recovery(benchmark, full_mode, tmp_path, report_sink):
    """Journaling costs a bounded per-insert overhead; recovery is exact."""
    scale = 0.3 if full_mode else 0.1
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0)

    baseline = benchmark.pedantic(
        _stream_once, args=(dataset, model), rounds=1, iterations=1
    )
    batch = _stream_once(
        dataset, model, wal_path=tmp_path / "wal-batch", wal_sync="batch"
    )
    always = _stream_once(
        dataset, model, wal_path=tmp_path / "wal-always", wal_sync="always"
    )

    expected = baseline.session.retained().retained_id_set()
    assert batch.session.retained().retained_id_set() == expected
    assert always.session.retained().retained_id_set() == expected

    # full-log session recovery restores the exact answer and thresholds
    started = time.perf_counter()
    recovered = recover_session(tmp_path / "wal-always")
    session_recover_seconds = time.perf_counter() - started
    assert recovered.retained().retained_id_set() == expected
    assert recovered.online.threshold == pytest.approx(
        always.session.online.threshold, abs=1e-12
    )
    recovered.close()

    points = _truncated_recoveries(tmp_path / "wal-always", tmp_path / "crashes")

    mean_baseline = float(baseline.insert_seconds.mean())
    mean_batch = float(batch.insert_seconds.mean())
    mean_always = float(always.insert_seconds.mean())
    stream_seconds = float(baseline.insert_seconds.sum())

    payload = {
        "dataset": DATASET,
        "scale": scale,
        "pruning": PRUNING,
        "delete_fraction": DELETE_FRACTION,
        "inserts": baseline.num_inserts,
        "deletes": baseline.num_deletes,
        "live_pairs": int(baseline.session.num_pairs),
        "mean_insert_ms_baseline": mean_baseline * 1e3,
        "mean_insert_ms_wal_batch": mean_batch * 1e3,
        "mean_insert_ms_wal_always": mean_always * 1e3,
        "wal_batch_overhead": mean_batch / max(mean_baseline, 1e-12),
        "wal_always_overhead": mean_always / max(mean_baseline, 1e-12),
        "log_bytes": int((tmp_path / "wal-always" / "wal.log").stat().st_size),
        "stream_seconds": stream_seconds,
        "session_recover_seconds": float(session_recover_seconds),
        "index_recovery": points,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "wal_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"WAL durability — {DATASET} (scale {scale}, {DELETE_FRACTION:.0%} deletes)",
        f"  {payload['inserts']} inserts / {payload['deletes']} deletes, "
        f"{payload['live_pairs']} live pairs, "
        f"{payload['log_bytes'] / 1024:.0f} KiB log",
        f"  per-insert latency: baseline {mean_baseline * 1e3:.3f}ms, "
        f"wal(batch) {mean_batch * 1e3:.3f}ms "
        f"({payload['wal_batch_overhead']:.2f}x), "
        f"wal(always) {mean_always * 1e3:.3f}ms "
        f"({payload['wal_always_overhead']:.2f}x)",
        f"  session recovery (full log): {session_recover_seconds:.3f}s vs "
        f"{stream_seconds:.3f}s live streaming",
        "  index recovery by surviving log fraction:",
    ]
    for point in points:
        lines.append(
            f"    {point['fraction']:>4.0%}: {point['records_replayed']:>5} "
            f"records -> {point['live_entities']} entities in "
            f"{point['recover_seconds']:.3f}s"
        )
    report_sink("wal_recovery", "\n".join(lines))

    # Structural expectations that hold on any machine.
    assert len(points) == len(TRUNCATION_FRACTIONS)
    assert points[-1]["live_entities"] == baseline.session.index.num_entities
    # Qualitative timing claims (wall-clock-sensitive; REPRO_SKIP_PERF=1
    # downgrades them to measurements on noisy shared runners):
    # (1) batch-sync journaling stays within 3x of the un-journaled insert,
    # (2) replaying the logical log beats re-streaming (no re-scoring, no
    #     feature generation in recover_index).
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert payload["wal_batch_overhead"] <= 3.0
        assert points[-1]["recover_seconds"] < stream_seconds
