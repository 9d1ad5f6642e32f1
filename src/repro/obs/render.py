"""Human-readable rendering for ``repro trace`` and ``repro client stats``:
span trees, event logs and ``stats`` responses."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["render_event", "render_event_summary", "render_span_tree", "render_stats"]


def render_span_tree(tree: Optional[Dict[str, Any]], indent: str = "") -> str:
    """ASCII rendering of a ``finish()``'d span tree.

    ::

        match                                  3.412ms
        ├─ queue-wait                          0.101ms  queue=read
        ├─ advance                             0.210ms
        └─ score-and-prune                     3.050ms  shared=False
           ├─ merge-pairs                      0.802ms
           └─ features                         1.411ms
    """
    if not tree:
        return "(no trace recorded)"
    lines: List[str] = []

    def _tags(span: Dict[str, Any]) -> str:
        tags = span.get("tags") or {}
        if not tags:
            return ""
        return "  " + " ".join(
            f"{key}={tags[key]}" for key in sorted(tags)
        )

    def _walk(span: Dict[str, Any], prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        label = f"{prefix}{connector}{span.get('name', '?')}"
        lines.append(
            f"{label:<42} {float(span.get('ms', 0.0)):>10.3f}ms{_tags(span)}"
        )
        children = span.get("children") or []
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for position, child in enumerate(children):
            _walk(child, child_prefix, position == len(children) - 1, False)

    _walk(tree, indent, True, True)
    return "\n".join(lines)


def render_event(event: Dict[str, Any]) -> str:
    """One event as a compact single line (``repro trace --tail``)."""
    ts = event.get("ts", 0.0)
    parts = [
        f"{float(ts):.3f}",
        f"{event.get('role', '?'):<8}",
        f"{event.get('type', '?'):<20}",
    ]
    skip = {"ts", "seq", "pid", "role", "type", "spans"}
    details = " ".join(
        f"{key}={event[key]}"
        for key in sorted(event)
        if key not in skip and not isinstance(event[key], (dict, list))
    )
    if details:
        parts.append(details)
    return " ".join(parts)


def render_event_summary(summary: Dict[str, Any]) -> str:
    """The :func:`repro.obs.events.summarize_events` digest as text."""
    lines: List[str] = [f"{summary.get('events', 0)} events"]
    requests = summary.get("requests", {})
    if requests.get("total"):
        lines.append(
            f"requests: {requests.get('total', 0)} total, "
            f"{requests.get('ok', 0)} ok, {requests.get('failed', 0)} failed"
        )
    by_type = summary.get("by_type", {})
    if by_type:
        lines.append(
            "by type: "
            + ", ".join(f"{name}={count}" for name, count in by_type.items())
        )
    by_role = summary.get("by_role", {})
    if by_role:
        lines.append(
            "by role: "
            + ", ".join(f"{name}={count}" for name, count in by_role.items())
        )
    slowest = summary.get("slowest") or []
    if slowest:
        lines.append("slowest requests:")
        for event in slowest:
            lines.append(
                f"  {float(event.get('duration_ms', 0.0)):>10.3f}ms "
                f"{event.get('op', '?'):<12} trace={event.get('trace', '-')} "
                f"ok={bool(event.get('ok'))}"
            )
    return "\n".join(lines)


def render_stats(stats: Dict[str, Any]) -> str:
    """Human-readable rendering of a ``stats`` response (``repro client stats``)."""
    lines: List[str] = []
    daemon = stats.get("daemon", {})
    if daemon:
        lines.append(
            f"daemon: {daemon.get('entities', 0)} live entities, "
            f"{daemon.get('pairs', 0)} candidate pairs, "
            f"WAL offset {daemon.get('wal_offset', 0)}"
        )
        policy = daemon.get("online_policy")
        if policy:
            lines.append(
                f"  online policy {policy.get('name')}, "
                f"threshold {policy.get('threshold', 0.0):.3f}"
            )
    shards = stats.get("shards") or []
    for shard in shards:
        lines.append(
            f"shard {shard.get('shard')}: {shard.get('blocks', 0)} blocks "
            f"({shard.get('spawning_blocks', 0)} spawning), "
            f"{shard.get('pairs', 0)} shard-local pairs, "
            f"offset {shard.get('offset', 0)}"
        )
    metrics = stats.get("metrics", {})
    queues = metrics.get("queues", {})
    if queues:
        lines.append(
            "queues: "
            + ", ".join(f"{name}={depth}" for name, depth in sorted(queues.items()))
        )
    counters = metrics.get("counters", {})
    if counters:
        lines.append(
            "events: "
            + ", ".join(f"{name}={count}" for name, count in sorted(counters.items()))
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append(
            "gauges: "
            + ", ".join(
                f"{name}={value:.0f}" if float(value) >= 10 else f"{name}={value:.3f}"
                for name, value in sorted(gauges.items())
            )
        )
    connections = metrics.get("connections")
    if connections:
        lines.append(
            f"connections: {connections.get('open', 0)} open / "
            f"{connections.get('total', 0)} total"
        )
    operations = metrics.get("operations", {})
    if operations:
        lines.append("per-op latency:")
        for op, values in operations.items():
            lines.append(
                f"  {op:<12} n={values.get('count', 0):<6} "
                f"mean={values.get('mean_ms', 0.0):.3f}ms "
                f"p50={values.get('p50_ms', 0.0):.3f}ms "
                f"p99={values.get('p99_ms', 0.0):.3f}ms "
                f"max={values.get('max_ms', 0.0):.3f}ms "
                f"errors={values.get('errors', 0)}"
            )
    return "\n".join(lines) if lines else "no stats reported"
