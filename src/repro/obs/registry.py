"""The unified metrics registry and its Prometheus text exposition.

:class:`MetricsRegistry` folds the serving stack's previously scattered
telemetry into one thread-safe object: the per-operation latency
histograms and error counts,
the queue-depth gauges, the delta-shipping / supervision / fault
counters, and **sampled process gauges** (RSS, WAL size, snapshot age,
per-shard replica lag) registered as callbacks and read at
snapshot/exposition time rather than pushed on the hot path.

Two serialisations: :meth:`MetricsRegistry.snapshot` keeps the JSON
shape the ``stats`` op has always returned (``operations`` / ``queues``
/ ``counters`` / ``connections``, now plus ``gauges``),
and :func:`render_prometheus` emits the Prometheus text exposition
format served by the new ``metrics`` protocol op.

Histogram bucket lookup is ``bisect``-based: ``add`` runs under the
registry lock on every request, so the old linear scan over the 29
geometric bounds was pure overhead.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BUCKET_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "process_rss_bytes",
    "render_prometheus",
]

#: histogram bucket upper bounds in seconds: 10^(-5) .. 10^2, four buckets
#: per decade (geometric, factor 10^(1/4) ≈ 1.78)
BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (exponent / 4.0) for exponent in range(-20, 9)
)


class LatencyHistogram:
    """Latency distribution over fixed geometric buckets.

    Percentiles are read from the bucket boundaries (the reported value is
    the upper bound of the bucket the rank falls in — an overestimate by at
    most one bucket width), while count, mean and max are exact.
    """

    def __init__(self) -> None:
        self._counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def add(self, seconds: float) -> None:
        """Record one observation.

        The bucket is the first bound ``>= seconds`` (one binary search —
        this runs under the registry lock for every served request).
        """
        self._counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    def percentile(self, fraction: float) -> float:
        """The bucket upper bound covering the ``fraction`` rank (0..1)."""
        if self.count == 0:
            return 0.0
        rank = max(1, int(fraction * self.count + 0.5))
        seen = 0
        for position, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank:
                if position < len(BUCKET_BOUNDS):
                    return BUCKET_BOUNDS[position]
                return self.max_seconds
        return self.max_seconds

    def summary(self) -> Dict[str, float]:
        """Count, mean and estimated p50/p99 in milliseconds."""
        mean = self.total_seconds / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_ms": mean * 1e3,
            "p50_ms": self.percentile(0.50) * 1e3,
            "p99_ms": self.percentile(0.99) * 1e3,
            "max_ms": self.max_seconds * 1e3,
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs for exposition."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(BUCKET_BOUNDS, self._counts):
            running += count
            out.append((bound, running))
        return out


def process_rss_bytes() -> Optional[int]:
    """This process's current resident set size, or ``None`` if unreadable."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGESIZE")
    except (OSError, ValueError, IndexError):
        try:
            import resource

            # ru_maxrss is the peak, in KiB on Linux — a fallback, not a
            # substitute for current RSS
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except Exception:  # pragma: no cover - platform without getrusage
            return None


class MetricsRegistry:
    """The serving stack's single thread-safe metrics registry.

    Recordings come from the asyncio loop, the mutation thread and the
    read thread concurrently; everything is guarded by one lock.  Sampled
    gauges (:meth:`register_gauge`) are callables invoked *outside* the
    lock at snapshot time — they read cheap process state (``/proc``,
    file sizes, replica lag) and must never block on the lock holder.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[str, LatencyHistogram] = {}
        self._errors: Dict[str, int] = {}
        self._gauges: Dict[str, int] = {
            "mutation_queue_depth": 0,
            "read_queue_depth": 0,
        }
        #: fault-tolerance event counters (worker_restarts,
        #: shed_mutations, shed_reads, deadline_exceeded, wal_failures, ...)
        self._counters: Dict[str, int] = {}
        #: sampled gauges: name -> zero-arg callable returning a number
        self._gauge_callbacks: Dict[str, Callable[[], Optional[float]]] = {}
        self.connections_total = 0
        self.connections_open = 0

    # -- recording -----------------------------------------------------------------

    def increment(self, name: str, delta: int = 1) -> None:
        """Bump a named event counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def record(self, op: str, seconds: float, ok: bool) -> None:
        """Record one served request."""
        with self._lock:
            histogram = self._histograms.get(op)
            if histogram is None:
                histogram = self._histograms[op] = LatencyHistogram()
            histogram.add(seconds)
            if not ok:
                self._errors[op] = self._errors.get(op, 0) + 1

    def adjust_gauge(self, name: str, delta: int) -> None:
        """Move a queue-depth gauge up or down."""
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0) + delta

    def register_gauge(
        self, name: str, sample: Callable[[], Optional[float]]
    ) -> None:
        """Register a gauge sampled lazily at snapshot/exposition time.

        ``sample`` returning ``None`` (or raising) omits the gauge from
        that snapshot rather than reporting a stale or bogus value.
        """
        with self._lock:
            self._gauge_callbacks[name] = sample

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_total += 1
            self.connections_open += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    # -- serialisation -------------------------------------------------------------

    def _sample_gauges(self) -> Dict[str, float]:
        """Current values of the sampled gauges (callbacks run unlocked)."""
        with self._lock:
            callbacks = list(self._gauge_callbacks.items())
        gauges: Dict[str, float] = {}
        for name, sample in callbacks:
            try:
                value = sample()
            except Exception:  # noqa: BLE001 - a broken gauge must not break stats
                continue
            if value is not None:
                gauges[name] = float(value)
        return gauges

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-encodable view of every counter, gauge and histogram."""
        sampled = self._sample_gauges()
        with self._lock:
            return {
                "operations": {
                    op: dict(
                        histogram.summary(), errors=self._errors.get(op, 0)
                    )
                    for op, histogram in sorted(self._histograms.items())
                },
                "queues": dict(self._gauges),
                "counters": dict(sorted(self._counters.items())),
                "connections": {
                    "total": self.connections_total,
                    "open": self.connections_open,
                },
                "gauges": dict(sorted(sampled.items())),
            }


# -- Prometheus text exposition ----------------------------------------------------

def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_bound(bound: float) -> str:
    return format(bound, ".9g")


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value)) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Served by the daemon's ``metrics`` protocol op and printed by
    ``repro client metrics`` — one histogram family for request
    latencies, counters for errors and events, gauges for
    queue depths, connections and the sampled process gauges.
    """
    sampled = registry._sample_gauges()
    with registry._lock:
        histograms = {
            op: (histogram.cumulative_buckets(), histogram.count, histogram.total_seconds)
            for op, histogram in sorted(registry._histograms.items())
        }
        errors = dict(sorted(registry._errors.items()))
        queues = dict(sorted(registry._gauges.items()))
        counters = dict(sorted(registry._counters.items()))
        connections_total = registry.connections_total
        connections_open = registry.connections_open

    lines: List[str] = []

    lines.append(
        "# HELP repro_request_duration_seconds Latency of served requests by operation."
    )
    lines.append("# TYPE repro_request_duration_seconds histogram")
    for op, (buckets, count, total_seconds) in histograms.items():
        label = _escape_label(op)
        for bound, cumulative in buckets:
            lines.append(
                f'repro_request_duration_seconds_bucket{{op="{label}",le="{_format_bound(bound)}"}} {cumulative}'
            )
        lines.append(
            f'repro_request_duration_seconds_bucket{{op="{label}",le="+Inf"}} {count}'
        )
        lines.append(
            f'repro_request_duration_seconds_sum{{op="{label}"}} {repr(total_seconds)}'
        )
        lines.append(
            f'repro_request_duration_seconds_count{{op="{label}"}} {count}'
        )

    lines.append("# HELP repro_request_errors_total Failed requests by operation.")
    lines.append("# TYPE repro_request_errors_total counter")
    for op, count in errors.items():
        lines.append(
            f'repro_request_errors_total{{op="{_escape_label(op)}"}} {count}'
        )

    lines.append("# HELP repro_events_total Serving events by kind.")
    lines.append("# TYPE repro_events_total counter")
    for name, count in counters.items():
        lines.append(
            f'repro_events_total{{event="{_escape_label(name)}"}} {count}'
        )

    lines.append("# HELP repro_queue_depth Dispatch queue depths.")
    lines.append("# TYPE repro_queue_depth gauge")
    for name, depth in queues.items():
        lines.append(
            f'repro_queue_depth{{queue="{_escape_label(name)}"}} {depth}'
        )

    lines.append("# HELP repro_connections_total Client connections accepted.")
    lines.append("# TYPE repro_connections_total counter")
    lines.append(f"repro_connections_total {connections_total}")
    lines.append("# HELP repro_connections_open Client connections currently open.")
    lines.append("# TYPE repro_connections_open gauge")
    lines.append(f"repro_connections_open {connections_open}")

    for name in sorted(sampled):
        metric = f"repro_{name}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(sampled[name])}")

    return "\n".join(lines) + "\n"
