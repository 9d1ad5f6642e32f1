"""Bench B1 — block-preparation runtime per stage.

Runs the full block-preparation pipeline (Token Blocking -> Block Purging ->
Block Filtering -> candidate extraction) over the synthetic Dirty ER
scalability series, reporting per-stage seconds per dataset.  Results are
saved to ``benchmarks/results/blocking_runtime.json``.

One correctness gate: on the smallest dataset the candidate pairs must equal
those of the object-chain reference, called directly
(``build_blocks`` -> ``purge_oversized_blocks`` -> ``filter_blocks`` ->
``CandidateSet.from_blocks``).
"""

import json
from pathlib import Path

import numpy as np

from repro.blocking import (
    TokenBlocking,
    filter_blocks,
    prepare_blocks,
    purge_oversized_blocks,
)
from repro.datamodel import CandidateSet
from repro.datasets import load_dirty_dataset

RESULTS_DIR = Path(__file__).resolve().parent / "results"

STAGES = ("blocking", "purging", "filtering", "candidate-extraction")


def _bench_dataset(name, seed, scale):
    dataset = load_dirty_dataset(name, seed=seed, scale=scale)
    prepared = prepare_blocks(dataset.collection, None)
    row = {
        "dataset": name,
        "scale": scale,
        "entities": len(dataset.collection),
        "blocks": len(prepared.blocks),
        "candidate_pairs": len(prepared.candidates),
        "stage_seconds": {stage: prepared.timer.get(stage) for stage in STAGES},
        "total_seconds": prepared.timer.total,
    }
    return dataset, prepared, row


def test_block_preparation_runtime(benchmark, full_mode, report_sink):
    """Per-stage block-preparation seconds; output equals the reference chain."""
    if full_mode:
        dataset_names, scale = ("D10K", "D100K", "D300K"), 0.02
    else:
        dataset_names, scale = ("D10K", "D300K"), 0.01

    measured = [_bench_dataset(name, 0, scale) for name in dataset_names]
    rows = [row for _, _, row in measured]

    # correctness gate, on the smallest dataset: the object chain called directly
    smallest, prepared, _ = measured[0]
    raw = TokenBlocking().build_blocks(smallest.collection, None).without_empty_blocks()
    reference = CandidateSet.from_blocks(
        filter_blocks(purge_oversized_blocks(raw, 0.5), 0.8)
    )
    assert np.array_equal(reference.left, prepared.candidates.left)
    assert np.array_equal(reference.right, prepared.candidates.right)

    # time the largest dataset once more under pytest-benchmark for the harness
    benchmark.pedantic(
        prepare_blocks, args=(measured[-1][0].collection, None), rounds=1, iterations=1
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "blocking_runtime.json").write_text(
        json.dumps({"scale": scale, "datasets": rows}, indent=2) + "\n",
        encoding="utf-8",
    )

    lines = [f"Block preparation — seconds per stage (scale {scale})"]
    for row in rows:
        lines.append(
            f"  {row['dataset']:>6} ({row['entities']} entities, "
            f"{row['candidate_pairs']} pairs): {row['total_seconds']:.3f}s"
        )
        for stage in STAGES:
            lines.append(f"      {stage:<21} {row['stage_seconds'][stage]:.3f}s")
    report_sink("blocking_runtime", "\n".join(lines))

    assert all(row["candidate_pairs"] > 0 for row in rows)
    assert all(row["total_seconds"] > 0.0 for row in rows)
