"""``repro.obs`` — tracing, structured event log, and unified metrics.

The serving stack's observability layer, in three parts that share a
trace id as the join key:

* :mod:`repro.obs.trace` — per-request span trees propagated across
  threads (:func:`activate` / :func:`hook_span`) and processes
  (:meth:`RequestTrace.graft` over the worker fan-out handshake);
* :mod:`repro.obs.events` — a JSON-lines event sink shared by every
  process in the serving tree (``--event-log DIR`` /
  ``REPRO_EVENT_LOG``) plus the :func:`get_logger` logging pipeline
  replacing bare prints and ``traceback.print_exc``;
* :mod:`repro.obs.registry` — the unified :class:`MetricsRegistry`
  (histograms, counters, queue gauges, stage seconds, sampled process
  gauges) with Prometheus text exposition for the ``metrics`` op.
"""

from repro.obs.events import (
    EVENT_LOG_ENV,
    configure,
    configured_dir,
    emit,
    get_logger,
    read_events,
    set_role,
    summarize_events,
)
from repro.obs.registry import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    MetricsRegistry,
    process_rss_bytes,
    render_prometheus,
)
from repro.obs.render import (
    render_event,
    render_event_summary,
    render_span_tree,
    render_stats,
)
from repro.obs.trace import (
    RequestTrace,
    Span,
    activate,
    current_trace,
    hook_span,
    mint_trace_id,
)

__all__ = [
    "BUCKET_BOUNDS",
    "EVENT_LOG_ENV",
    "LatencyHistogram",
    "MetricsRegistry",
    "RequestTrace",
    "Span",
    "activate",
    "configure",
    "configured_dir",
    "current_trace",
    "emit",
    "get_logger",
    "hook_span",
    "mint_trace_id",
    "process_rss_bytes",
    "read_events",
    "render_event",
    "render_event_summary",
    "render_prometheus",
    "render_span_tree",
    "render_stats",
    "set_role",
    "summarize_events",
]
