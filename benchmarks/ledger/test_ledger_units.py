"""Timing-free unit tests of the perf ledger's own machinery.

Nothing here measures a duration: the estimator, the span arithmetic, the
cyclic-churn invariant and the emitted schemas are checked on fixed inputs,
so the tier-1 run may collect this file.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import ledger_spec as spec  # noqa: E402
import run as ledger_run  # noqa: E402
from ledger_child import layer_metrics_from_spans  # noqa: E402
from ledger_spans import (  # noqa: E402
    SpanRecorder,
    covered_length,
    layer_self_seconds,
    self_times,
)
from ledger_stats import (  # noqa: E402
    percentile,
    positionwise_floor,
    quartile_spread,
    quartiles,
    verdict,
)
from ledger_workloads import digest_of, make_workload, split_churn  # noqa: E402


# -- estimator -----------------------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    assert percentile(list(range(1, 12)), 10.0) == pytest.approx(2.0)
    assert percentile([10.0, 20.0], 50.0) == pytest.approx(15.0)
    assert percentile([7.0], 99.0) == 7.0
    assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
    assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0


def test_positionwise_floor_shrugs_off_bursts_inside_rounds():
    quiet = [[1.0, 2.0, 3.0, 4.0] for _ in range(20)]
    assert positionwise_floor(quiet) == [1.0, 2.0, 3.0, 4.0]
    # contention only ever adds time: a burst in every round but one per
    # position moves every round mean, and no position's floor
    bursty = [[value * 3.0 for value in row] for row in quiet]
    for position in range(4):
        bursty[5 * position][position] /= 3.0
    assert positionwise_floor(bursty) == [1.0, 2.0, 3.0, 4.0]
    assert min(statistics.fmean(row) for row in bursty) > 2 * statistics.fmean(quiet[0])
    with pytest.raises(ValueError):
        positionwise_floor([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        positionwise_floor([])


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 10.0)
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def test_quartile_spread_is_the_drivers_formula():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == {"q1": q1, "median": median, "q3": q3}
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)


def test_verdict_rules():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [value * 1.02 for value in steady], 0.10) == "ok"
    assert verdict(steady, [value * 1.20 for value in steady], 0.10) == "regressed"
    noisy = [100.0, 140.0, 80.0, 120.0, 90.0]
    assert verdict(noisy, steady, 0.10) == "unresolved"
    # noisy, but every run of the change beats every run of the parent
    assert verdict(noisy, [value * 0.5 for value in steady], 0.10) == "ok"
    # higher-is-better metrics regress downwards
    assert verdict(steady, [value * 0.8 for value in steady], 0.10, "higher") == "regressed"
    assert verdict(steady, [value * 1.2 for value in steady], 0.10, "higher") == "ok"


# -- span arithmetic -------------------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(1.0)
    assert covered_length([(11.0, 12.0)], 0.0, 10.0) == 0.0
    assert covered_length([], 0.0, 10.0) == 0.0


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        ["ingest", 0.0, 10.0, None, 0],      # root
        ["index.add", 1.0, 6.0, 0, 0],       # child of root
        ["wal.append", 2.0, 3.0, 1, 0],      # grandchild
        ["shard0", 6.0, 9.0, 0, 0],          # two overlapping children:
        ["shard1", 7.0, 9.5, 0, 0],          # union covers 6.0 .. 9.5
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 3.5))
    assert own[1] == pytest.approx(5.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    # nested self times of one root add up to the root's duration, minus
    # what the overlap counted twice
    assert sum(own) == pytest.approx(10.0 + 2.0)


def test_layer_self_seconds_keys_by_round_phase_and_name():
    spans = [
        ["ingest", 0.0, 4.0, None, 0],
        ["index.add", 1.0, 3.0, 0, 0],
        ["answer", 4.0, 9.0, None, 0],
        ["model.score", 5.0, 6.0, 2, 0],
        ["ingest", 10.0, 12.0, None, 1],
        ["index.add", 10.5, 11.0, 4, 1],
        ["index.add", 11.0, 11.5, 4, 1],
    ]
    totals = layer_self_seconds(spans)
    assert totals[(0, "ingest", "op")] == pytest.approx(2.0)
    assert totals[(0, "ingest", "index.add")] == pytest.approx(2.0)
    assert totals[(0, "answer", "model.score")] == pytest.approx(1.0)
    assert totals[(0, "answer", "op")] == pytest.approx(4.0)
    assert totals[(1, "ingest", "index.add")] == pytest.approx(1.0)


def test_layer_metrics_sum_to_the_rounds_per_op_time():
    spans = [
        ["setup", -5.0, -1.0, None, -1],
        ["index.bulk_load", -4.0, -2.0, 0, -1],
        # round 0: two ingest ops of 2 s each, one answer op of 3 s
        ["ingest", 0.0, 2.0, None, 0],
        ["session.mutate", 0.0, 2.0, 2, 0],
        ["index.add", 0.5, 1.5, 3, 0],
        ["wal.append", 1.0, 1.25, 4, 0],
        ["ingest", 2.0, 4.0, None, 0],
        ["mystery.layer", 2.0, 3.0, 6, 0],
        ["answer", 4.0, 7.0, None, 0],
        ["session.retained", 4.0, 7.0, 8, 0],
        ["delta.generate_all", 4.0, 6.0, 9, 0],
    ]
    metrics = layer_metrics_from_spans(spans, {0: {"ingest": 2, "answer": 1}})
    assert metrics["index.bulk_load_ms"] == pytest.approx(2000.0)
    assert metrics["wal.append_ms"] == pytest.approx(125.0)
    assert metrics["index.add_ms"] == pytest.approx(375.0)
    assert metrics["session.other_ms"] == pytest.approx(500.0)
    # a span no layer claims still counts, as unattributed time
    assert metrics["harness.unattributed_ms"] == pytest.approx(1000.0)
    ingest_layers = ("wal.append_ms", "index.add_ms", "session.other_ms",
                     "harness.unattributed_ms")
    assert sum(metrics[name] for name in ingest_layers) == pytest.approx(4000.0 / 2)
    assert metrics["delta.generate_all_ms"] + metrics[
        "session.retained_assemble_ms"
    ] == pytest.approx(3000.0)


class _Layer:
    def work(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return value * 2


def test_recorder_wraps_nests_and_restores():
    tracer = SpanRecorder()
    layer = _Layer()
    tracer.wrap(layer, "work", "layer.work")
    tracer.wrap(_Layer, "inner", "layer.inner")  # class-level wrap
    assert layer.work(3) == 7 and tracer.spans == []  # disabled: no spans

    tracer.enabled = True
    tracer.round = 4
    with tracer.span("ingest"):
        assert layer.work(3) == 7
        tracer.add_stages([("stage.a", 0.25), ("stage.b", 0.5)])
    names = [span[0] for span in tracer.spans]
    assert names == ["ingest", "layer.work", "layer.inner", "stage.a", "stage.b"]
    parents = [span[3] for span in tracer.spans]
    assert parents == [None, 0, 1, 0, 0]
    assert {span[4] for span in tracer.spans} == {4}
    root_start = tracer.spans[0][1]
    assert tracer.spans[3][1:3] == [root_start, root_start + 0.25]
    assert tracer.spans[4][1:3] == [root_start + 0.25, root_start + 0.75]
    assert all(span[2] >= span[1] for span in tracer.spans)
    exported = tracer.as_dicts()
    assert set(exported[0]) == {"name", "start", "end", "parent", "round"}

    tracer.unwrap_all()
    assert "work" not in vars(layer)
    assert _Layer.inner.__name__ == "inner"


def test_every_span_metric_is_a_declared_layer_metric():
    assert set(spec.SPAN_METRICS.values()) <= set(spec.PER_LAYER_NAMES)


# -- cyclic churn ------------------------------------------------------------------------


def test_split_churn_is_seeded_and_disjoint():
    first = [f"a{position}" for position in range(40)]
    second = [f"b{position}" for position in range(30)]
    base, churned, updated = split_churn(first, second, 10, seed=5)
    assert (base, churned, updated) == split_churn(first, second, 10, seed=5)
    assert churned != split_churn(first, second, 10, seed=6)[1]
    assert len(churned) == 10 and len(updated) == 10 and len(base) == 60
    assert {side for _, side in churned} == {0, 1}
    assert not {record for record, _ in churned} & {record for record, _ in base}
    assert {record for record, _ in updated} <= {record for record, _ in base}


def _live_state(session):
    index = session.index
    nodes = [node for node in range(index.num_slots) if index.is_live(node)]
    return (
        sorted((index.entity_id(node), index.side_of(node)) for node in nodes),
        session.num_pairs,
        sorted(session.retained().retained_ids),
    )


def test_churn_round_returns_to_the_identical_live_state(tmp_path):
    workload = make_workload(
        spec.WORKLOAD_BY_NAME["stream_churn"], 3, tmp_path, SpanRecorder(), quick=True
    )
    workload.setup()
    try:
        before = _live_state(workload.session)
        digests = {workload.run_round().digest for _ in range(3)}
        assert len(digests) == 1
        assert _live_state(workload.session) == before
        # node ids are never reused, so the index itself did grow
        assert workload.session.index.num_slots > len(before[0])
        # the harness self-test breaks exactly the round it is told to
        workload.break_round = workload.rounds_run
        assert workload.run_round().digest not in digests
        assert workload.run_round().digest in digests
    finally:
        workload.session.close()


def test_digest_is_stable_and_order_sensitive():
    assert digest_of([["a", "b"]], b"\x00") == digest_of([["a", "b"]], b"\x00")
    assert digest_of([["a", "b"]]) != digest_of([["b", "a"]])


# -- schemas -------------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_meets_the_contract():
    document = spec.benchmark_json()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert document["paths"] == ["benchmarks/ledger"]
    assert 1 <= document["run_seconds"] <= 60 and isinstance(document["run_seconds"], int)
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["end_to_end"]) <= 16
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for group in ("workloads", "end_to_end", "per_layer")
             for entry in document[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in document["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in document["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in document["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in (*document["end_to_end"], *document["per_layer"]):
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])
    assert len(json.dumps(document)) < 64 * 1024


def test_committed_benchmark_json_matches_the_tables():
    committed = ROOT / "BENCHMARK.json"
    if not committed.exists():
        pytest.skip("no BENCHMARK.json beside this checkout")
    assert json.loads(committed.read_text(encoding="utf-8")) == spec.benchmark_json()


def test_layer_table_names_real_workloads_and_metrics():
    workloads = set(spec.WORKLOAD_BY_NAME)
    for row in spec.layer_table():
        assert set(row["on"]) | set(row["flat_on"]) <= workloads
        assert not set(row["on"]) & set(row["flat_on"])
        assert set(row["moves"]) <= set(spec.END_TO_END_NAMES)


def _child(setup_s, scale=1.0):
    return {
        "setup_s": setup_s,
        "rounds": [
            {"ingest_ops_ms": [2.0 * scale + step, 4.0 * scale + step],
             "answer_ops_ms": [50.0 * scale + step],
             "wall_s": 0.5, "traced": False, "correct": True}
            for step in range(5)
        ],
        "recover_stages_ms": [[300.0 * scale, 20.0], [320.0, 10.0 * scale]],
        "peak_rss_mb": 100.0 * scale,
        "sys_s": 0.01,
        "minor_faults": 3,
        "calibration": {"start": {"py_ms": 20.0, "np_ms": 10.0},
                        "end": {"py_ms": 22.0, "np_ms": 10.0}},
        "layer": {"index.slots": 10.0 * scale},
    }


def test_aggregate_and_final_line_schema():
    children = [_child(3.0), _child(5.0, 2.0), _child(4.0, 3.0)]
    metrics = ledger_run.aggregate(children, condition_s=0.5)
    assert tuple(metrics["end_to_end"]) == spec.END_TO_END_NAMES
    assert tuple(metrics["per_layer"]) == spec.PER_LAYER_NAMES
    assert metrics["end_to_end"]["setup_s"] == 4.0  # median of the set-ups
    rounds = [entry for child in children for entry in child["rounds"]]
    first = min(entry["ingest_ops_ms"][0] for entry in rounds)
    second = min(entry["ingest_ops_ms"][1] for entry in rounds)
    assert metrics["end_to_end"]["ingest_ms"] == pytest.approx((first + second) / 2)
    assert metrics["end_to_end"]["answer_ms"] == pytest.approx(
        min(entry["answer_ops_ms"][0] for entry in rounds)
    )
    # the fastest repetition of each recovery stage, summed
    assert metrics["end_to_end"]["recover_ms"] == pytest.approx(300.0 + 10.0)
    assert metrics["end_to_end"]["peak_rss_mb"] == 200.0
    assert metrics["per_layer"]["index.slots"] == 20.0
    assert metrics["per_layer"]["harness.rounds"] == 15.0
    assert metrics["per_layer"]["harness.calib_drift_pct"] == pytest.approx(10.0)
    assert metrics["per_layer"]["weights.lcp_ms"] == 0.0  # unmeasured layers read 0

    for traced, names in ((False, spec.END_TO_END_NAMES), (True, spec.PER_LAYER_NAMES)):
        line = json.loads(ledger_run.final_line(True, 10, 0, metrics, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert tuple(line["metrics"]) == names
        for name, entry in line["metrics"].items():
            assert set(entry) == {"value", "unit"} and entry["unit"] == spec.UNITS[name]
