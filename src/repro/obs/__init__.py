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

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BUCKET_BOUNDS": "registry",
    "EVENT_LOG_ENV": "events",
    "LatencyHistogram": "registry",
    "MetricsRegistry": "registry",
    "RequestTrace": "trace",
    "Span": "trace",
    "activate": "trace",
    "configure": "events",
    "configured_dir": "events",
    "current_trace": "trace",
    "emit": "events",
    "get_logger": "events",
    "hook_span": "trace",
    "mint_trace_id": "trace",
    "process_rss_bytes": "registry",
    "read_events": "events",
    "render_event": "render",
    "render_event_summary": "render",
    "render_prometheus": "registry",
    "render_span_tree": "render",
    "render_stats": "render",
    "set_role": "events",
    "summarize_events": "events",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
