"""``repro.serve``: a persistent matching service over a WAL-backed session.

The serving subsystem turns the streaming :class:`~repro.incremental.MatchingSession`
into a long-lived daemon: K shard-affine worker processes replicate the
session's write-ahead log (one signature shard each, the PR 5 routing
contract) and answer ``match``/``top_k`` queries at *pinned* WAL offsets, so
every response is snapshot-consistent under concurrent ingest.  The wire
protocol is length-prefixed JSON with CRC32 framing — the WAL's record
discipline applied to a socket.

Modules
-------
``protocol``
    Message framing (async + sync), request/response envelopes.
``daemon``
    :class:`MatchingDaemon` — the asyncio front end and its dispatch threads.
``workers``
    :class:`ShardReplica` + the worker process body and parent-side handle;
    a read state rides the worker's pipe reply as one array container
    (:mod:`repro.persistence.container`), decoded with every check on.
``router``
    Pinned read views assembled from per-shard states; ``match``/``top_k``
    answer kernels.
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
    "MatchingDaemon": "daemon",
    "OverloadedError": "daemon",
    "ServeClient": "client",
    "ServeError": "client",
    "ShardReplica": "workers",
    "ShardRouter": "router",
    "ShardWorkerHandle": "workers",
    "UnavailableError": "daemon",
    "WalFailedError": "daemon",
    "WalFollowError": "workers",
    "WalRecordFollower": "workers",
    "WorkerError": "workers",
    "WorkerSupervisor": "supervision",
    "ERROR_DEADLINE": "protocol",
    "ERROR_OVERLOADED": "protocol",
    "ERROR_UNAVAILABLE": "protocol",
    "ERROR_WAL": "protocol",
    "IDEMPOTENT_OPS": "protocol",
    "OPERATIONS": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "ProtocolError": "protocol",
    "encode_message": "protocol",
    "profile_from_wire": "protocol",
    "profile_to_wire": "protocol",
    "build_pinned_view": "router",
    "match_answer": "router",
    "top_k_answer": "router",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
