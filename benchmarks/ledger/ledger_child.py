"""One fresh measurement process of the perf ledger.

``run.py`` spawns this file (never imports it into the parent) with the
retention environment of ``ledger_spec.CHILD_ENV``.  One child = set-up,
warm-up rounds, timed identical-work rounds, recovery repetitions and the
correctness checks of one workload; it writes everything it measured as
JSON to the result path it was given.

    python3 ledger_child.py <spec.json> <result.json>
    python3 ledger_child.py --condition <MiB>
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from ledger_spans import SpanRecorder, layer_self_seconds
from ledger_spec import SPAN_METRICS, WORKLOAD_BY_NAME

PAGE = 4096


def condition(megabytes: int) -> None:
    """Touch one byte per page of a throw-away buffer, then exit.

    The first touch of host memory by a fresh VM is slow (measured 13.7 s
    for 1 GiB once, 0.3 s afterwards); paying it here, in a process of its
    own, keeps it out of every metric and out of every ``peak_rss_mb``.
    """
    buffer = bytearray(megabytes << 20)
    view = memoryview(buffer)
    for offset in range(0, len(buffer), PAGE):
        view[offset] = 1


def calibrate() -> Dict[str, float]:
    """Two fixed kernels (pure Python, NumPy), best of three, in ms.

    They make numbers from different machines comparable and, taken at the
    start and the end of a child, flag a run the box slowed down under.
    """
    import numpy as np

    values = np.random.default_rng(12345).random(2_000_000)
    best_py = best_np = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for number in range(300_000):
            total += number * number % 7
        best_py = min(best_py, time.perf_counter() - started)
        started = time.perf_counter()
        np.sort(values)
        best_np = min(best_np, time.perf_counter() - started)
    return {"py_ms": best_py * 1e3, "np_ms": best_np * 1e3}


def layer_metrics_from_spans(
    spans: Sequence[Sequence[Any]], ops_by_round: Dict[int, Dict[str, int]]
) -> Dict[str, float]:
    """Per-layer ``*_ms`` values: median over traced rounds of self time per op.

    Self times of a round are divided by that round's operation count of the
    span's phase, so ingest-phase layers sum to the round's ``ingest_ms`` and
    answer-phase layers to its ``answer_ms``.  Spans no layer claims count as
    ``harness.unattributed_ms``, so the sum always closes.
    """
    per_round: Dict[int, Dict[str, float]] = {}
    setup: Dict[str, float] = {}
    for (round_index, phase, name), seconds in layer_self_seconds(spans).items():
        if round_index not in ops_by_round or phase not in ("ingest", "answer"):
            if phase == "setup" and name == "index.bulk_load":
                setup["index.bulk_load_ms"] = (
                    setup.get("index.bulk_load_ms", 0.0) + seconds * 1e3
                )
            continue
        metric = SPAN_METRICS.get((phase, name), "harness.unattributed_ms")
        ops = max(1, ops_by_round[round_index][phase])
        bucket = per_round.setdefault(round_index, {})
        bucket[metric] = bucket.get(metric, 0.0) + seconds * 1e3 / ops
    names = {name for bucket in per_round.values() for name in bucket}
    metrics = {
        name: statistics.median(bucket.get(name, 0.0) for bucket in per_round.values())
        for name in names
    }
    metrics.update(setup)
    return metrics


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    from ledger_workloads import make_workload

    traced = bool(spec["trace"])
    calibration = {"start": calibrate()}
    tracer = SpanRecorder()
    workload = make_workload(
        WORKLOAD_BY_NAME[spec["workload"]],
        spec["seed"],
        Path(spec["workdir"]),
        tracer,
        quick=spec["quick"],
    )
    workload.break_round = spec.get("break_round")
    try:
        # the workload wraps its layers when it finds the tracer on
        tracer.enabled = traced
        with tracer.span("setup"):
            workload.setup()
        tracer.enabled = False

        # every round, warm-ups included, must give the first round's answer
        expected = workload.run_round().digest
        for _ in range(spec["warmups"] - 1):
            workload.run_round()
        workload.begin_timed()
        usage_before = workload.usage()
        setup_s = time.monotonic() - spec["spawn_monotonic"]

        # in the traced pass the first rounds stay untraced: their wall-clock
        # is the baseline ``harness.trace_overhead_pct`` is measured against
        untraced = spec["rounds"] // 2 if traced else spec["rounds"]
        rounds: List[Dict[str, Any]] = []
        ops_by_round: Dict[int, Dict[str, int]] = {}
        failed = 0
        for index in range(spec["rounds"]):
            tracer.round = index
            tracer.enabled = traced and index >= untraced
            started = time.perf_counter()
            sample = workload.run_round()
            wall = time.perf_counter() - started
            tracer.enabled = False
            correct = sample.digest == expected
            if not correct:
                failed += workload.ops_per_round
            if index >= untraced:
                ops_by_round[index] = {
                    "ingest": len(sample.ingest_seconds),
                    "answer": len(sample.answer_seconds),
                }
            rounds.append(
                {
                    "ingest_ops_ms": [seconds * 1e3 for seconds in sample.ingest_seconds],
                    "answer_ops_ms": [seconds * 1e3 for seconds in sample.answer_seconds],
                    "wall_s": wall,
                    "traced": index >= untraced,
                    "correct": correct,
                }
            )
        usage_after = workload.usage()
        peak_rss_mb = workload.peak_rss_mb()
        workload.end_timed()

        workload.prepare_recovery()
        recoveries: List[List[float]] = []
        for _ in range(spec["recover_reps"]):
            stages, same = workload.recover_once()
            recoveries.append([seconds * 1e3 for seconds in stages])
            if not same:
                failed += 1
        attempted = len(rounds) * workload.ops_per_round + len(recoveries)
        verified, detail = workload.verify() if spec["verify"] else (True, "skipped")
        if not verified:
            failed = attempted
    finally:
        workload.close()
        tracer.unwrap_all()
    calibration["end"] = calibrate()

    layer = dict(workload.layer)
    if traced:
        if workload.in_process:
            layer.update(layer_metrics_from_spans(tracer.spans, ops_by_round))
        plain = [r["wall_s"] for r in rounds if not r["traced"]]
        with_spans = [r["wall_s"] for r in rounds if r["traced"]]
        layer["harness.trace_overhead_pct"] = (min(with_spans) / min(plain) - 1.0) * 100.0
    import numpy
    import scipy

    return {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "setup_s": setup_s,
        "rounds": rounds,
        "recover_stages_ms": recoveries,
        "peak_rss_mb": peak_rss_mb,
        "sys_s": usage_after[0] - usage_before[0],
        "minor_faults": usage_after[1] - usage_before[1],
        "calibration": calibration,
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "verify_detail": detail,
        "digest": expected,
        "layer": layer,
        "spans": tracer.as_dicts() if traced else [],
    }


def main(argv: Sequence[str]) -> int:
    if len(argv) == 2 and argv[0] == "--condition":
        condition(int(argv[1]))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    result = measure(spec)
    Path(argv[1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
