"""``repro.serve``: a persistent matching service over a WAL-backed session.

The serving subsystem turns the streaming :class:`~repro.incremental.MatchingSession`
into a long-lived daemon that answers ``match``/``top_k`` queries at *pinned*
WAL offsets from one read view it advances from its own index, so every
response is snapshot-consistent under concurrent ingest; K shard-affine
worker processes replicate the session's write-ahead log (one signature
shard each, the PR 5 routing contract), answer ``stats`` and are
supervised.  The wire
protocol is length-prefixed JSON with CRC32 framing — the WAL's record
discipline applied to a socket.

Modules
-------
``protocol``
    Message framing (async + sync), request/response envelopes.
``daemon``
    :class:`MatchingDaemon` — the asyncio front end and its dispatch threads.
``workers``
    :class:`ShardReplica` + the worker process body and parent-side handle.
``router``
    The daemon's read view (advanced by the authority index's deltas), the
    ``match``/``top_k`` answer kernels, and the fleet's follow / ``stats``
    fan-out.
``client``
    :class:`ServeClient` — the blocking stdlib client.
``supervision``
    :class:`WorkerSupervisor` — heartbeat, hang detection, respawn with
    checkpoint adoption.

Latency histograms, gauges and the ``stats`` rendering are :mod:`repro.obs`'s
(:class:`repro.obs.MetricsRegistry`, :func:`repro.obs.render_stats`; the
``metrics`` protocol op exposes the same registry in Prometheus text
exposition).
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "DeadlineExceededError": "daemon",
    "IndeterminateError": "daemon",
    "MatchingDaemon": "daemon",
    "OverloadedError": "daemon",
    "ServeClient": "client",
    "ServeError": "client",
    "ShardReplica": "workers",
    "ShardRouter": "router",
    "ShardWorkerHandle": "workers",
    "WalFailedError": "daemon",
    "WalFollowError": "workers",
    "WalRecordFollower": "workers",
    "WorkerError": "workers",
    "WorkerSupervisor": "supervision",
    "ERROR_DEADLINE": "protocol",
    "ERROR_INDETERMINATE": "protocol",
    "ERROR_OVERLOADED": "protocol",
    "ERROR_WAL": "protocol",
    "IDEMPOTENT_OPS": "protocol",
    "OPERATIONS": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol",
    "encode_message": "protocol",
    "profile_to_wire": "protocol",
    "match_answer": "router",
    "top_k_answer": "router",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
