"""Synchronous client for the matching service.

A thin blocking wrapper over the framed-JSON protocol
(:mod:`repro.serve.protocol`): one socket, sequential request/response,
stdlib only.  Responses are matched to requests by id; a server-side
failure surfaces as :class:`ServeError` carrying the typed error the
daemon reported.

Fault tolerance (all bounded, all with exponential backoff + jitter):

* **connect retry** — the daemon's socket may not be accepting yet (race
  with ``repro serve`` startup); connecting retries within
  ``connect_timeout`` seconds instead of failing on the first refusal;
* **request retry** — a retryable failure re-sends the request up to
  ``retries`` times.  What is retryable depends on *when* it failed:
  before the request bytes were sent, any op may retry (the daemon never
  saw it); after, only :data:`~repro.serve.protocol.IDEMPOTENT_OPS` and
  ``overloaded`` rejections (which the daemon shed unprocessed) retry.  A
  transport failure after sending a non-idempotent write is ambiguous —
  the write may have been applied — so it is NEVER retried; the error
  propagates for the caller to reconcile.

>>> with ServeClient(port=9876) as client:
...     client.insert({"entity_id": "a1", "attributes": {"title": "x"}})
...     answer = client.match()
"""

from __future__ import annotations

import math
import random
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Union

from ..datamodel.entity import EntityProfile
from ..obs.trace import mint_trace_id
from .protocol import (
    ERROR_OVERLOADED,
    IDEMPOTENT_OPS,
    ProtocolError,
    profile_to_wire,
    read_message_from,
    write_message_to,
)

WireProfile = Union[EntityProfile, Dict[str, Any]]


class ServeError(RuntimeError):
    """The daemon answered a request with a typed error."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.server_message = message


def _wire_profile(profile: WireProfile) -> Dict[str, Any]:
    if isinstance(profile, EntityProfile):
        return profile_to_wire(profile)
    return profile


class ServeClient:
    """One connection to a running :class:`~repro.serve.daemon.MatchingDaemon`.

    Parameters
    ----------
    timeout:
        Per-request socket timeout in seconds.
    connect_timeout:
        Total budget for establishing the initial (and any re-established)
        connection, retried with backoff while the daemon's listener may
        still be binding (0 = one attempt).
    retries:
        Retryable-failure re-send budget per :meth:`call` (0 disables).
    backoff / max_backoff:
        Exponential backoff base and cap between retries; each sleep is
        jittered uniformly in ``[0.5, 1.5) ×`` the nominal delay.
    deadline_ms:
        When set, every request carries this server-enforced deadline.
    retry_rng:
        Jitter source (tests pass a seeded ``random.Random``).

    Raises
    ------
    ValueError
        For a negative ``retries`` or ``connect_timeout``, or a
        ``deadline_ms`` that is not a finite number above 0 — before any
        connection is tried.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: Optional[float] = 60.0,
        connect_timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        deadline_ms: Optional[float] = None,
        retry_rng: Optional[random.Random] = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be at least 0, got {retries}")
        if not connect_timeout >= 0:
            raise ValueError(f"connect_timeout must be at least 0, got {connect_timeout}")
        if deadline_ms is not None and not 0 < deadline_ms < math.inf:
            raise ValueError(
                f"deadline_ms must be a finite number above 0, got {deadline_ms}"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = int(retries)
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.deadline_ms = deadline_ms
        self._rng = retry_rng if retry_rng is not None else random.Random()
        self._socket: Optional[socket.socket] = None
        self._stream = None
        self._next_id = 0
        #: trace id of the most recent request (minted client-side, echoed
        #: by the daemon) — join key into the server's event log
        self.last_trace_id: Optional[str] = None
        self._connect()

    # -- lifecycle ---------------------------------------------------------------
    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._drop_connection()

    def _drop_connection(self) -> None:
        stream, self._stream = self._stream, None
        sock, self._socket = self._socket, None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def _connect(self) -> None:
        """(Re)establish the connection, retrying within ``connect_timeout``.

        Absorbs the startup race: ``repro serve`` announces after binding,
        but a caller launching both may connect before the listener is up.
        """
        if self._stream is not None:
            return
        deadline = time.monotonic() + self.connect_timeout
        attempt = 0
        while True:
            try:
                self._socket = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._stream = self._socket.makefile("rwb")
                return
            except OSError:
                self._drop_connection()
                if time.monotonic() >= deadline:
                    raise
                self._sleep_backoff(attempt)
                attempt += 1

    def _sleep_backoff(self, attempt: int) -> None:
        nominal = min(self.max_backoff, self.backoff * (2.0 ** attempt))
        time.sleep(nominal * (0.5 + self._rng.random()))

    # -- transport ---------------------------------------------------------------
    def _exchange(
        self, op: str, args: Dict[str, Any], trace_id: Optional[str] = None
    ) -> Any:
        """One request/response on the current connection.

        Transport failures raise with ``sent`` encoded by re-raising as a
        tuple-carrying exception attribute: the caller needs to know
        whether the request bytes left the client before deciding to retry.
        """
        self._connect()
        self._next_id += 1
        request_id = self._next_id
        message: Dict[str, Any] = {"op": op, "id": request_id, "args": args}
        if trace_id is not None:
            message["trace"] = trace_id
        if self.deadline_ms is not None:
            message["deadline_ms"] = self.deadline_ms
        sent = False
        try:
            write_message_to(self._stream, message)
            sent = True
            response = read_message_from(self._stream)
        except (OSError, ProtocolError) as error:
            self._drop_connection()
            error.request_sent = sent  # type: ignore[attr-defined]
            raise
        if response is None:
            self._drop_connection()
            error = ProtocolError("the daemon closed the connection mid-request")
            error.request_sent = True  # type: ignore[attr-defined]
            raise error
        if response.get("id") != request_id:
            self._drop_connection()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}"
            )
        if response.get("ok"):
            return response.get("result")
        error_body = response.get("error") or {}
        raise ServeError(
            str(error_body.get("type", "unknown")),
            str(error_body.get("message", "")),
        )

    def call(self, op: str, **args: Any) -> Any:
        """Send one request; retry per the idempotency rules; return the
        result or raise :class:`ServeError`."""
        # one trace id per logical call: retried attempts of the same
        # request share it, so the server's event log shows them as one
        # causal story rather than unrelated requests
        trace_id = mint_trace_id()
        self.last_trace_id = trace_id
        attempt = 0
        while True:
            try:
                return self._exchange(op, args, trace_id)
            except ServeError as error:
                # the daemon processed (or explicitly shed) the request —
                # only an OVERLOADED shed is retryable, and it is
                # retryable for every op: shed means not applied
                if (
                    error.error_type != ERROR_OVERLOADED
                    or attempt >= self.retries
                ):
                    raise
            except (OSError, ProtocolError) as error:
                # transport failure: retry if the request never left the
                # client, or if the op is idempotent; a sent non-idempotent
                # write is ambiguous and must surface
                sent = getattr(error, "request_sent", True)
                if attempt >= self.retries or (sent and op not in IDEMPOTENT_OPS):
                    raise
            self._sleep_backoff(attempt)
            attempt += 1

    # -- operations --------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.call("ping")

    def insert(self, profile: WireProfile, side: int = 0) -> Dict[str, Any]:
        return self.call("insert", profile=_wire_profile(profile), side=side)

    def insert_bulk(
        self, profiles: Sequence[WireProfile], side: int = 0
    ) -> Dict[str, Any]:
        return self.call(
            "insert_bulk",
            profiles=[_wire_profile(profile) for profile in profiles],
            side=side,
        )

    def remove(self, entity_id: str, side: int = 0) -> Dict[str, Any]:
        return self.call("remove", entity_id=entity_id, side=side)

    def update(self, profile: WireProfile, side: int = 0) -> Dict[str, Any]:
        return self.call("update", profile=_wire_profile(profile), side=side)

    def match(self) -> Dict[str, Any]:
        """The full retained-match set at a pinned WAL offset."""
        return self.call("match")

    def top_k(
        self, entity_id: str, side: int = 0, k: int = 10
    ) -> Dict[str, Any]:
        """The ``k`` best-scored candidate counterparts of one entity."""
        return self.call("top_k", entity_id=entity_id, side=side, k=k)

    def checkpoint(self) -> Dict[str, Any]:
        return self.call("checkpoint")

    def stats(self) -> Dict[str, Any]:
        return self.call("stats")

    def metrics(self) -> Dict[str, Any]:
        """The unified metrics registry in Prometheus text exposition.

        Returns ``{"content_type": ..., "text": ...}`` — ``text`` is the
        scrape body (``repro_request_duration_seconds`` histograms, event
        counters, queue-depth and process gauges).
        """
        return self.call("metrics")

    def shutdown(self) -> Dict[str, Any]:
        """Ask the daemon to drain, checkpoint and exit."""
        return self.call("shutdown")

    # -- conveniences ------------------------------------------------------------
    def retained_pairs(self) -> List[tuple]:
        """``match`` flattened to ``[(id_a, id_b, probability), ...]``."""
        answer = self.match()
        return [tuple(entry) for entry in answer["retained"]]
