"""Unit tests for the unified metrics registry (``repro.obs.registry``).

Covers the bisect-based histogram bucketing (asserted identical to the
linear reference scan it replaced, across every boundary), snapshot
consistency under concurrent recording, and the Prometheus text
exposition format.
"""

import json
import threading

import pytest

from repro.obs.registry import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    process_rss_bytes,
    render_prometheus,
)


def linear_reference_bucket(seconds: float) -> int:
    """The original linear scan ``add`` used before the bisect rewrite."""
    for position, bound in enumerate(BUCKET_BOUNDS):
        if seconds <= bound:
            return position
    return len(BUCKET_BOUNDS)


class TestBucketAssignment:
    def test_bisect_matches_linear_scan_on_every_boundary(self):
        values = [0.0, 1e-12, 1e6]
        for bound in BUCKET_BOUNDS:
            values.extend(
                [bound, bound * (1.0 - 1e-12), bound * (1.0 + 1e-12)]
            )
        for seconds in values:
            histogram = LatencyHistogram()
            histogram.add(seconds)
            expected = linear_reference_bucket(seconds)
            assert histogram._counts[expected] == 1, (
                f"{seconds!r} landed in bucket "
                f"{histogram._counts.index(1)}, linear scan says {expected}"
            )

    def test_bisect_matches_linear_scan_on_a_sweep(self):
        import random

        rng = random.Random(7)
        for _ in range(500):
            seconds = 10.0 ** rng.uniform(-7.0, 3.0)
            histogram = LatencyHistogram()
            histogram.add(seconds)
            assert histogram._counts[linear_reference_bucket(seconds)] == 1

    def test_overflow_bucket(self):
        histogram = LatencyHistogram()
        histogram.add(BUCKET_BOUNDS[-1] * 2.0)
        assert histogram._counts[len(BUCKET_BOUNDS)] == 1
        # the overflow observation still counts toward the +Inf total
        assert histogram.count == 1

    def test_summary_and_percentiles(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.add(0.001)
        histogram.add(1.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(1.0, rel=0.8)
        assert summary["p99_ms"] >= summary["p50_ms"]
        assert summary["max_ms"] == pytest.approx(1000.0)

    def test_cumulative_buckets_are_monotone(self):
        histogram = LatencyHistogram()
        for seconds in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            histogram.add(seconds)
        cumulative = histogram.cumulative_buckets()
        counts = [count for _, count in cumulative]
        assert counts == sorted(counts)
        assert counts[-1] == 5


class TestConcurrentSnapshot:
    OPS = ("match", "insert", "top_k")
    THREADS = 6
    ROUNDS = 400

    def test_snapshot_is_consistent_and_serializable_under_load(self):
        registry = MetricsRegistry()
        start = threading.Barrier(self.THREADS + 1)
        stop = threading.Event()

        def hammer(worker: int) -> None:
            start.wait()
            for round_number in range(self.ROUNDS):
                op = self.OPS[round_number % len(self.OPS)]
                registry.record(op, 0.001 * (worker + 1), round_number % 5 != 0)
                registry.increment("degraded_reads")
                registry.adjust_gauge("read_queue_depth", 1)
                registry.adjust_gauge("read_queue_depth", -1)
                registry.connection_opened()
                registry.connection_closed()

        threads = [
            threading.Thread(target=hammer, args=(worker,))
            for worker in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        snapshots = []
        while any(thread.is_alive() for thread in threads):
            snapshot = registry.snapshot()
            # every mid-flight snapshot must be JSON-serializable and
            # internally consistent (no partially-updated structures)
            json.dumps(snapshot)
            for op, stats in snapshot["operations"].items():
                assert stats["count"] >= stats["errors"] >= 0
                assert stats["max_ms"] >= 0.0
            assert snapshot["connections"]["open"] >= 0
            snapshots.append(snapshot)
            render_prometheus(registry)
        for thread in threads:
            thread.join()
        stop.set()

        final = registry.snapshot()
        total = self.THREADS * self.ROUNDS
        assert sum(s["count"] for s in final["operations"].values()) == total
        assert final["counters"]["degraded_reads"] == total
        assert final["queues"]["read_queue_depth"] == 0
        assert final["connections"]["total"] == total
        assert final["connections"]["open"] == 0
        # counts only ever grow: snapshots taken while hammering are a
        # monotone prefix of the final state
        observed = [
            sum(s["count"] for s in snap["operations"].values())
            for snap in snapshots
        ]
        assert observed == sorted(observed)

    def test_snapshot_keeps_the_historical_shape(self):
        registry = MetricsRegistry()
        registry.record("match", 0.001, True)
        snapshot = registry.snapshot()
        assert set(snapshot) == {
            "operations", "queues", "counters", "connections", "gauges",
        }
        assert set(snapshot["operations"]["match"]) == {
            "count", "mean_ms", "p50_ms", "p99_ms", "max_ms", "errors",
        }


class TestGauges:
    def test_registered_gauge_is_sampled_at_snapshot_time(self):
        registry = MetricsRegistry()
        values = iter([5.0, 7.0])
        registry.register_gauge("wal_size_bytes", lambda: next(values))
        assert registry.snapshot()["gauges"]["wal_size_bytes"] == 5.0
        assert registry.snapshot()["gauges"]["wal_size_bytes"] == 7.0

    def test_none_and_raising_gauges_are_omitted(self):
        registry = MetricsRegistry()
        registry.register_gauge("absent", lambda: None)

        def broken():
            raise OSError("gone")

        registry.register_gauge("broken", broken)
        registry.register_gauge("present", lambda: 3.5)
        gauges = registry.snapshot()["gauges"]
        assert gauges == {"present": 3.5}

    def test_process_rss_bytes_is_positive_here(self):
        rss = process_rss_bytes()
        assert rss is not None and rss > 0


class TestPrometheusExposition:
    def build_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.record("match", 0.001, True)
        registry.record("match", 0.1, False)
        registry.increment("degraded_reads", 2)
        registry.adjust_gauge("mutation_queue_depth", 1)
        registry.connection_opened()
        registry.register_gauge("wal_size_bytes", lambda: 4096.0)
        return registry

    def test_golden_families(self):
        text = render_prometheus(self.build_registry())
        lines = text.splitlines()
        # golden non-histogram families, exact text
        for expected in [
            "# TYPE repro_request_duration_seconds histogram",
            'repro_request_duration_seconds_bucket{op="match",le="+Inf"} 2',
            'repro_request_duration_seconds_sum{op="match"} 0.101',
            'repro_request_duration_seconds_count{op="match"} 2',
            "# TYPE repro_request_errors_total counter",
            'repro_request_errors_total{op="match"} 1',
            "# TYPE repro_events_total counter",
            'repro_events_total{event="degraded_reads"} 2',
            "# TYPE repro_queue_depth gauge",
            'repro_queue_depth{queue="mutation_queue_depth"} 1',
            'repro_queue_depth{queue="read_queue_depth"} 0',
            "repro_connections_total 1",
            "repro_connections_open 1",
            "# TYPE repro_wal_size_bytes gauge",
            "repro_wal_size_bytes 4096",
        ]:
            assert expected in lines, f"missing exposition line: {expected}"
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_and_complete(self):
        text = render_prometheus(self.build_registry())
        import re

        buckets = re.findall(
            r'repro_request_duration_seconds_bucket\{op="match",le="([^"]+)"\} (\d+)',
            text,
        )
        assert len(buckets) == len(BUCKET_BOUNDS) + 1  # every bound + +Inf
        counts = [int(count) for _, count in buckets]
        assert counts == sorted(counts)
        assert buckets[-1] == ("+Inf", "2")
        # the 0.001 observation is cumulative from its bound onward
        reference = linear_reference_bucket(0.001)
        assert counts[reference] == 1

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.increment('weird"event\\name')
        text = render_prometheus(registry)
        assert 'repro_events_total{event="weird\\"event\\\\name"} 1' in text
