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
    :class:`ShardReplica` + the worker process body and parent-side handle.
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

from .client import ServeClient, ServeError
from .daemon import (
    DeadlineExceededError,
    MatchingDaemon,
    OverloadedError,
    UnavailableError,
    WalFailedError,
)
from .protocol import (
    ERROR_DEADLINE,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    ERROR_WAL,
    IDEMPOTENT_OPS,
    OPERATIONS,
    PROTOCOL_VERSION,
    ProtocolError,
    encode_message,
    profile_from_wire,
    profile_to_wire,
)
from .router import ShardRouter, build_pinned_view, match_answer, top_k_answer
from .supervision import WorkerSupervisor
from .workers import (
    ShardReplica,
    ShardWorkerHandle,
    WalFollowError,
    WalRecordFollower,
    WorkerError,
)

__all__ = [
    "DeadlineExceededError",
    "MatchingDaemon",
    "OverloadedError",
    "ServeClient",
    "ServeError",
    "ShardReplica",
    "ShardRouter",
    "ShardWorkerHandle",
    "UnavailableError",
    "WalFailedError",
    "WalFollowError",
    "WalRecordFollower",
    "WorkerError",
    "WorkerSupervisor",
    "ERROR_DEADLINE",
    "ERROR_OVERLOADED",
    "ERROR_UNAVAILABLE",
    "ERROR_WAL",
    "IDEMPOTENT_OPS",
    "OPERATIONS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "profile_from_wire",
    "profile_to_wire",
    "build_pinned_view",
    "match_answer",
    "top_k_answer",
]
