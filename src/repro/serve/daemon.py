"""The ``repro serve`` daemon: concurrent ingest + snapshot-consistent reads.

Architecture (the REPL → executor → storage-engine layering, serving
edition):

* the **authority** state is one WAL-backed
  :class:`~repro.incremental.MatchingSession`; every mutation
  (``insert``/``insert_bulk``/``remove``/``update``/``checkpoint``) runs on
  a single dedicated mutation thread (the index is not thread-safe, and one
  writer keeps the WAL append order the commit order) while the asyncio
  loop keeps accepting connections;
* **reads** (``match``/``top_k``) run on their own single dispatch thread
  over one resident read view (:class:`~repro.serve.router.ReadView`).  A
  read first has the mutation thread advance the view from the authority
  index by its delta, resolve ``top_k``'s node and pin the WAL offset —
  one short step between two writes — and then computes its answer over
  the view, off the mutation thread: every response equals the canonical
  view as of the offset it reports, and writes arriving *during* the query
  change nothing the query sees.  The read thread keeps the last exact read
  (:class:`~repro.serve.router.SharedRead`): a ``match`` or ``top_k`` at the
  same view state — no write in between — formats or selects from it
  instead of reading again;
* K long-lived shard worker processes (:mod:`repro.serve.workers`) each
  replicate one signature shard by tailing the same WAL — eagerly: the
  mutation thread wakes the router's follower after every applied write.
  They answer ``stats`` (whose offset, like a follow's, is taken under the
  workers' locks: replicas never rewind) and are supervised; no read uses
  them.

Durability: mutations are journaled before they are applied (the session's
WAL discipline), and a SIGTERM/SIGINT drains in-flight requests, writes a
final checkpoint, fsyncs and exits cleanly — ``repro serve --recover``
resumes the identical retained set.  A mutation whose append failed and
whose undo failed too may or may not be in the log: it is answered
``indeterminate``, and the daemon fail-stops — it answers no read or write
after it, takes no checkpoint and exits 1, since only recovery can tell
which state the log holds.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Iterator, Optional, Tuple

from .. import __version__
from ..datamodel.entity import EntityProfile
from ..incremental.index import DuplicateEntityError, UnknownEntityError
from ..incremental.session import MatchingSession
from ..obs import events
from ..obs.registry import MetricsRegistry, process_rss_bytes, render_prometheus
from ..obs.trace import RequestTrace, activate, hook_span, mint_trace_id
from ..persistence.log import WalBrokenError, WalIndeterminateError, WriteAheadLog
from ..schema import SchemaError, check
from .protocol import (
    ERROR_DEADLINE,
    ERROR_INDETERMINATE,
    ERROR_OVERLOADED,
    ERROR_WAL,
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from .router import ExactRead, ReadView, SharedRead, ShardRouter, match_answer, top_k_answer
from .supervision import WorkerSupervisor, check_timing

#: operations serialized on the mutation thread
MUTATION_OPS = frozenset({"insert", "insert_bulk", "remove", "update", "checkpoint"})
#: seconds shutdown waits for in-flight requests before cancelling their
#: connections
DRAIN_TIMEOUT = 10.0


class OverloadedError(RuntimeError):
    """The target queue is at capacity; the request was shed unprocessed."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before the operation was applied."""


class WalFailedError(RuntimeError):
    """The write-ahead log failed; the mutation was neither logged nor applied."""


class IndeterminateError(RuntimeError):
    """A mutation may have been logged but was not applied; the daemon has
    stopped serving, and recovering its directory tells which."""


#: the error type each refusal a request may raise answers with (the metric
#: it counts is bumped where it is raised)
_REFUSALS = {
    OverloadedError: ERROR_OVERLOADED,
    DeadlineExceededError: ERROR_DEADLINE,
    WalFailedError: ERROR_WAL,
    IndeterminateError: ERROR_INDETERMINATE,
    UnknownEntityError: "unknown_entity",
    DuplicateEntityError: "duplicate_entity",
}


def _open_session(
    wal_path, model, recover: bool, wal_sync: str, **fresh_arguments
) -> Tuple[MatchingSession, int, bool]:
    """The authority session, the oldest snapshot a replica may adopt, and
    whether a replica may replay the log from byte zero instead."""
    if recover:
        session = MatchingSession.recover(wal_path, sync=wal_sync)
        # recovery adopted the authority from a snapshot's compacted
        # state, renumbering node ids — the log's earlier records describe
        # the *previous* node space and must never be replayed by a replica.
        # Write a floor checkpoint of the recovered state (slot layout
        # included): workers adopt it (or anything newer) and replay
        # only the tail past it, in the authority's node space.
        floor_path = session.checkpoint()
        return session, WriteAheadLog._snapshot_sequence(floor_path), False
    if model is None:
        raise ValueError("a fresh daemon needs a frozen model")
    # a fresh session requires an empty WAL directory and writes snapshot 1
    # immediately, so every snapshot is adoptable and a from-zero replay is
    # equally valid
    session = MatchingSession(
        model, wal_path=wal_path, wal_sync=wal_sync, **fresh_arguments
    )
    return session, 1, True


class MatchingDaemon:
    """A persistent matching service over one WAL directory.

    Parameters
    ----------
    wal_path:
        The WAL directory — the daemon's entire durable state.
    model:
        The frozen classifier for a fresh daemon (ignored with
        ``recover=True``, where the model comes from the snapshot).
    recover:
        Resume the state persisted in ``wal_path`` instead of starting
        empty.
    num_shards:
        Shard worker count K.
    announce:
        Print a one-line JSON ``{"event": "serving", ...}`` banner once the
        daemon serves (the CLI and the end-to-end tests parse it).
    max_pending:
        Bound on each dispatch queue (mutations, reads); a request past it
        is shed with ``overloaded``.
    event_log:
        Directory of the structured event log (``None``: the
        ``REPRO_EVENT_LOG`` variable, if set).  Requests record their span
        trees exactly when there is a log to journal them.

    The socket is bound before the session writes or recovers anything, so
    a daemon that cannot listen leaves ``wal_path`` as it found it.
    """

    def __init__(
        self,
        wal_path,
        model=None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int = 2,
        bilateral: bool = True,
        pruning: str = "BLAST",
        snapshot_every: Optional[int] = None,
        wal_sync: str = "always",
        recover: bool = False,
        announce: bool = False,
        heartbeat_interval: float = 1.0,
        hang_timeout: float = 5.0,
        spawn_grace: float = 10.0,
        max_pending: int = 256,
        event_log=None,
        slow_request_ms: Optional[float] = None,
    ) -> None:
        # refused before the session writes its log, snapshot or checkpoint
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        check_timing(heartbeat_interval, hang_timeout)
        if max_pending < 1:
            raise ValueError(f"max_pending must be at least 1, got {max_pending}")
        if slow_request_ms is not None and not slow_request_ms >= 0:
            raise ValueError(f"slow_request_ms must be at least 0, got {slow_request_ms}")
        # the event sink is configured before the session is built, so WAL
        # recovery/snapshot events land in this daemon's log; an explicit
        # ``None`` falls back to ``REPRO_EVENT_LOG``, and configuring also
        # exports (or clears) that variable so shard workers inherit exactly
        # this daemon's sink, never a previous one's
        if event_log is None:
            event_log = os.environ.get(events.EVENT_LOG_ENV) or None
        events.configure(event_log, role="daemon")
        self.event_log = event_log
        self.slow_request_ms = slow_request_ms
        self._logger = events.get_logger(__name__)
        # bound before the session writes or recovers anything
        family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        self._listener = socket.create_server((host, port), family=family)
        try:
            self.session, adopt_floor, allow_from_zero = _open_session(
                wal_path,
                model,
                recover,
                wal_sync,
                bilateral=bilateral,
                pruning=pruning,
                snapshot_every=snapshot_every,
            )
        except BaseException:
            self._listener.close()
            raise
        self.wal_path = wal_path
        self.num_shards = num_shards
        self.announce = announce
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.spawn_grace = spawn_grace
        self.max_pending = max_pending
        self.metrics = MetricsRegistry()
        # one serial per applied mutation; the router samples it whenever it
        # pins an offset (``serial_source``) — for ``stats`` or for a follow —
        # which makes per-shard replication lag measurable in *records*
        self._mutation_serial = 0
        self.router = ShardRouter(
            wal_path,
            num_shards,
            adopt_floor=adopt_floor,
            allow_from_zero=allow_from_zero,
            metrics=self.metrics,
        )
        self.router.serial_source = lambda: self._mutation_serial
        self.router.offset_source = self._offset
        self._register_gauges()
        self.address: Optional[Tuple[str, int]] = None
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._connections: set = set()
        self._mutator: Optional[ThreadPoolExecutor] = None
        self._reader: Optional[ThreadPoolExecutor] = None
        self._signals_installed = False
        self._supervisor: Optional[WorkerSupervisor] = None
        # queue depths live on the asyncio loop thread only — plain ints
        # are race-free there, and they bound what run_in_executor enqueues
        self._pending = {"mutation": 0, "read": 0}
        # what reads answer from: advanced on the mutation thread, read on
        # the read thread; and the last exact read, reused while no write
        # moves it
        self._view = ReadView(self.session.index)
        self._shared_read = SharedRead()
        # why the daemon fail-stopped (a write's fate unknown), or None
        self._failed: Optional[str] = None

    # -- observability -----------------------------------------------------------
    def _register_gauges(self) -> None:
        """Process gauges sampled at every ``metrics``/``stats`` snapshot."""
        self.metrics.register_gauge("process_rss_bytes", process_rss_bytes)
        self.metrics.register_gauge(
            "wal_size_bytes", lambda: float(self.session.wal.log_offset)
        )
        self.metrics.register_gauge("snapshot_age_seconds", self._snapshot_age)
        for shard in range(self.num_shards):
            self.metrics.register_gauge(
                f"shard{shard}_replica_lag_records",
                lambda shard=shard: float(
                    max(
                        0,
                        self._mutation_serial
                        - self.router.followed_serials.get(shard, 0),
                    )
                ),
            )

    def _snapshot_age(self) -> Optional[float]:
        paths = self.session.wal.snapshot_paths()
        if not paths:
            return None
        return max(0.0, time.time() - paths[-1].stat().st_mtime)

    # -- lifecycle ---------------------------------------------------------------
    async def run(self) -> None:
        """Serve until a shutdown is requested; then drain, checkpoint, close."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        self._mutator = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-mutate"
        )
        self._reader = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-read"
        )
        self.router.start()
        self._supervisor = WorkerSupervisor(
            self.router,
            self.metrics,
            heartbeat_interval=self.heartbeat_interval,
            hang_timeout=self.hang_timeout,
            spawn_grace=self.spawn_grace,
        ).start()
        self.router.kick_supervisor = self._supervisor.kick
        server = await asyncio.start_server(
            self._handle_connection, sock=self._listener
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._install_signal_handlers(loop)
        self.ready.set()
        events.emit(
            "daemon_serving",
            host=self.address[0],
            port=int(self.address[1]),
            shards=self.num_shards,
        )
        if self.announce:
            print(
                json.dumps(
                    {
                        "event": "serving",
                        "host": self.address[0],
                        "port": self.address[1],
                        "pid": os.getpid(),
                        "shards": self.num_shards,
                        "wal": str(self.wal_path),
                    }
                ),
                flush=True,
            )
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain_connections()
            # a read still running advances its view on the mutation
            # thread: it finishes before the final checkpoint
            self._reader.shutdown(wait=True)
            await loop.run_in_executor(self._mutator, self._final_checkpoint)
            self._mutator.shutdown(wait=True)
            # no write is left to follow; join the follower while the
            # supervisor can still unblock a follow stuck on a wedged worker
            self.router.stop_following()
            if self._supervisor is not None:
                self._supervisor.stop()
            self.router.stop()
            self._remove_signal_handlers(loop)
            events.emit("daemon_stopped")

    def serve(self) -> int:
        """Blocking entry point; returns the process exit code (1 after a
        fail-stop)."""
        asyncio.run(self.run())
        return 1 if self._failed else 0

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (signal handlers, tests, ``shutdown``)."""
        loop = self._loop
        if loop is not None and self._shutdown is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed: the daemon is down

    def _install_signal_handlers(self, loop) -> None:
        try:
            loop.add_signal_handler(signal.SIGTERM, self._shutdown.set)
            loop.add_signal_handler(signal.SIGINT, self._shutdown.set)
            self._signals_installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            # not the main thread (in-process test daemons) or an event
            # loop without signal support; request_shutdown() remains
            self._signals_installed = False

    def _remove_signal_handlers(self, loop) -> None:
        if self._signals_installed:
            loop.remove_signal_handler(signal.SIGTERM)
            loop.remove_signal_handler(signal.SIGINT)
            self._signals_installed = False

    async def _drain_connections(self) -> None:
        """Let in-flight requests finish, then cancel lingering connections."""
        tasks = [task for task in self._connections if not task.done()]
        if not tasks:
            return
        done, pending = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def _final_checkpoint(self) -> None:
        """The shutdown commit: one last snapshot, fsync, close.

        A broken WAL (failed mid-append and unrepaired) cannot take the
        shutdown snapshot; everything acked is already durable in the log,
        so shutdown proceeds rather than hanging the exit path.  After a
        fail-stop none is taken: the session's state may not be the log's.
        """
        try:
            if self._failed is None:
                self.session.checkpoint()
        except OSError:
            pass
        finally:
            try:
                self.session.close()
            except OSError:
                pass

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.metrics.connection_opened()
        try:
            while not self._shutdown.is_set():
                read_task = asyncio.ensure_future(read_message(reader))
                stop_task = asyncio.ensure_future(self._shutdown.wait())
                try:
                    await asyncio.wait(
                        {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
                    )
                finally:
                    for side_task in (read_task, stop_task):
                        if not side_task.done():
                            side_task.cancel()
                    await asyncio.gather(
                        read_task, stop_task, return_exceptions=True
                    )
                if not read_task.done() or read_task.cancelled():
                    break  # shutdown won the race; the client reconnects later
                try:
                    message = read_task.result()
                except ProtocolError as error:
                    await write_message(
                        writer, error_response(None, "protocol", str(error))
                    )
                    break
                if message is None:
                    break  # clean EOF
                response = await self._dispatch(message)
                await write_message(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            self.metrics.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # -- dispatch ----------------------------------------------------------------
    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            request = check("request", message)
        except SchemaError as error:
            # an unknown op is a protocol error, any other refusal of the
            # envelope a bad request; its trace is checked first, so it is
            # echoed unless it is what was refused
            supplied = message.get("trace") if error.field != "trace" else None
            return error_response(
                message.get("id"),
                "protocol" if error.field == "op" else "bad_request",
                str(error),
                trace=supplied or mint_trace_id(),
            )
        request_id, op = request["id"], request["op"]
        # the trace id is the request's identity across threads, worker
        # processes and the event log: a client-supplied one is honoured
        # (v2 envelopes), otherwise the daemon mints one (v1 clients)
        trace_id = request["trace"] or mint_trace_id()
        deadline: Optional[float] = None
        if request["deadline_ms"] is not None:
            deadline = time.monotonic() + request["deadline_ms"] / 1e3
        # spans are recorded exactly when there is a log to journal them
        trace = RequestTrace(trace_id, op, enabled=events.configured_dir() is not None)
        events.emit("request_start", trace=trace_id, op=op)
        start = time.perf_counter()
        ok = True
        error_type: Optional[str] = None
        try:
            # the args, against their op's table: a refusal is a bad_request
            args = check(op, request["args"])
            if op == "ping":
                result = {
                    "version": __version__,
                    "protocol": PROTOCOL_VERSION,
                    "shards": self.num_shards,
                    "offset": self._offset(),
                }
            elif op == "metrics":
                result = {
                    "content_type": "text/plain; version=0.0.4; charset=utf-8",
                    "text": render_prometheus(self.metrics),
                }
            elif op == "shutdown":
                self._shutdown.set()
                result = {"stopping": True}
            else:
                queue = "mutation" if op in MUTATION_OPS else "read"
                result = await self._run(queue, op, args, deadline, trace)
                if queue == "read":
                    # no read is answered after a fail-stop: it read a state
                    # recovery may not reproduce
                    self._refuse_if_failed()
            return ok_response(request_id, result, trace=trace_id)
        except tuple(_REFUSALS) as error:
            ok = False
            error_type = next(_REFUSALS[kind] for kind in _REFUSALS if isinstance(error, kind))
            return error_response(request_id, error_type, str(error), trace=trace_id)
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            ok = False
            error_type = "bad_request" if isinstance(error, ValueError) else "internal"
            if error_type == "internal":
                self._logger.error(
                    "unhandled error serving %s: %s",
                    op,
                    error,
                    exc_info=True,
                    extra={"trace_id": trace_id},
                )
            return error_response(
                request_id, error_type, f"{type(error).__name__}: {error}", trace=trace_id
            )
        finally:
            elapsed = time.perf_counter() - start
            self.metrics.record(op, elapsed, ok)
            self._finish_request(trace, op, ok, error_type, elapsed, deadline)

    def _finish_request(
        self,
        trace: RequestTrace,
        op: str,
        ok: bool,
        error_type: Optional[str],
        elapsed: float,
        deadline: Optional[float],
    ) -> None:
        """Close the request's span tree and journal the finish event."""
        spans = trace.finish()
        if events.configured_dir() is None:
            return
        duration_ms = round(elapsed * 1e3, 3)
        fields: Dict[str, Any] = {
            "trace": trace.trace_id,
            "op": op,
            "ok": bool(ok),
            "duration_ms": duration_ms,
        }
        if error_type is not None:
            fields["error"] = error_type
        if deadline is not None:
            fields["deadline_slack_ms"] = round(
                (deadline - time.monotonic()) * 1e3, 3
            )
        if spans is not None:
            fields["spans"] = spans
        events.emit("request", **fields)
        if self.slow_request_ms is not None and duration_ms >= self.slow_request_ms:
            events.emit(
                "slow_request",
                trace=trace.trace_id,
                op=op,
                duration_ms=duration_ms,
                threshold_ms=float(self.slow_request_ms),
            )

    async def _run(
        self,
        queue: str,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        """Run ``op`` on the thread of ``queue`` (``"mutation"`` or
        ``"read"``), or shed it when that queue holds ``max_pending``."""
        if self._pending[queue] >= self.max_pending:
            self.metrics.increment("shed_mutations" if queue == "mutation" else "shed_reads")
            raise OverloadedError(
                f"{queue} queue is full ({self.max_pending} pending); "
                "retry after backoff"
            )
        self._pending[queue] += 1
        self.metrics.adjust_gauge(f"{queue}_queue_depth", 1)
        enqueued = time.perf_counter()
        executor = self._mutator if queue == "mutation" else self._reader
        run = self._mutate_checked if queue == "mutation" else self._read_checked

        def queued() -> Any:
            if trace is not None:
                trace.add_span("queue-wait", (time.perf_counter() - enqueued) * 1e3, queue=queue)
            return run(op, args, deadline, trace)

        try:
            return await self._loop.run_in_executor(executor, queued)
        finally:
            self._pending[queue] -= 1
            self.metrics.adjust_gauge(f"{queue}_queue_depth", -1)

    def _check_deadline(self, deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            self.metrics.increment("deadline_exceeded")
            raise DeadlineExceededError("deadline exceeded before the operation ran")

    def _mutate_checked(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        # the deadline is re-checked HERE, on the mutation thread, before
        # anything is journaled or applied: a mutation that fails with
        # `deadline` was unambiguously NOT applied (clients must never
        # retry a non-idempotent op whose deadline raced the apply)
        self._check_deadline(deadline)
        # a mutation queued behind a fail-stop is refused before it is journaled
        self._refuse_if_failed()
        try:
            # the active trace lets deep layers (the WAL append/fsync hook
            # spans) attribute their time to this request without plumbing
            with activate(trace):
                with trace.span("mutate") if trace is not None else nullcontext():
                    result = self._mutate(op, args)
        except WalIndeterminateError as error:
            self.metrics.increment("wal_failures")
            self._fail_stop(str(error))
            raise IndeterminateError(f"the mutation was not applied: {error}") from error
        except WalBrokenError as error:
            self.metrics.increment("wal_failures")
            raise WalFailedError(str(error)) from error
        except OSError as error:
            self.metrics.increment("wal_failures")
            raise WalFailedError(
                f"write-ahead log failure; the operation was not applied: {error}"
            ) from error
        if op != "checkpoint":
            self._mutation_serial += 1
            # the workers replay it now, not inside the next read
            self.router.notify_write()
        return result

    def _fail_stop(self, reason: str) -> None:
        """Stop serving: the log may hold a write the session did not apply,
        so no state the daemon holds is one recovery will reproduce."""
        self._failed = reason
        events.emit("daemon_fail_stop", reason=reason)
        self.request_shutdown()

    def _refuse_if_failed(self) -> None:
        if self._failed is not None:
            raise IndeterminateError(
                "the daemon stopped serving after a write whose fate is unknown "
                f"({self._failed})"
            )

    def _read_checked(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        self._check_deadline(deadline)
        with activate(trace):
            return self._read(op, args)

    # -- mutation thread ---------------------------------------------------------
    def _offset(self) -> int:
        return int(self.session.wal.log_offset)

    def _advance(self, op: str, args: Dict[str, Any]) -> Tuple[Any, int, int]:
        """A read's step between two writes: advance the view, resolve
        ``top_k``'s node and pin the offset the view now reflects."""
        view = self._view.advance()
        node = self.session.index.node_of(args["entity_id"], args["side"]) if op == "top_k" else -1
        return view, node, self._offset()

    def _mutate(self, op: str, args: Dict[str, Any]) -> Any:
        if op == "insert":
            result = self.session.insert(EntityProfile(**args["profile"]), side=args["side"])
            return {
                "entity_id": result.entity_id,
                "node": int(result.node),
                "num_new_pairs": int(result.num_new_pairs),
                "matches": [list(match) for match in result.matches],
                "offset": self._offset(),
            }
        if op == "insert_bulk":
            profiles = [EntityProfile(**entry) for entry in args["profiles"]]
            result = self.session.insert_bulk(profiles, side=args["side"])
            return {
                "entity_ids": list(result.entity_ids),
                "num_new_pairs": int(result.num_new_pairs),
                "num_admitted": int(result.num_admitted),
                "offset": self._offset(),
            }
        if op == "remove":
            result = self.session.remove(args["entity_id"], side=args["side"])
            return {
                "entity_id": result.entity_id,
                "num_retracted_pairs": int(result.num_retracted_pairs),
                "offset": self._offset(),
            }
        if op == "update":
            result = self.session.update(EntityProfile(**args["profile"]), side=args["side"])
            return {
                "entity_id": result.inserted.entity_id,
                "num_retracted_pairs": int(result.removed.num_retracted_pairs),
                "num_new_pairs": int(result.inserted.num_new_pairs),
                "matches": [list(match) for match in result.inserted.matches],
                "offset": self._offset(),
            }
        # checkpoint: ``op`` was checked against the request table
        path = self.session.checkpoint()
        return {"snapshot": str(path), "offset": self._offset()}

    # -- read thread -------------------------------------------------------------
    @contextmanager
    def _exact_read(self, view, span: str) -> Iterator[ExactRead]:
        """The exact read at ``view``, inside the answer's ``span``: the
        last one when ``view`` is at the same state (``shared``)."""
        read = self._shared_read.held(view)
        with hook_span(span, shared=read is not None):
            if read is None:
                read = self._shared_read.compute(
                    view, self.session.model, self.session.pruning
                )
            yield read

    def _read(self, op: str, args: Dict[str, Any]) -> Any:
        if op in ("match", "top_k"):
            # the view and the offset are taken together, between two
            # writes: an offset read out here could be past the view
            with hook_span("advance"):
                view, node, offset = self._mutator.submit(self._advance, op, args).result()
            entity_id = self.session.index.entity_id
            model, pruning = self.session.model, self.session.pruning
            if op == "match":
                with self._exact_read(view, "score-and-prune") as read:
                    answer = match_answer(view, entity_id, model, pruning, read)
            else:
                with self._exact_read(view, "score-top-k") as read:
                    matches = top_k_answer(view, entity_id, model, node, args["k"], read)
                answer = {"entity_id": args["entity_id"], "matches": matches}
            answer["offset"] = offset
            return answer
        # stats: ``op`` was checked against the request table; the router
        # pins its offset under the workers' locks
        offset, shards = self.router.shard_stats()
        return {
            "daemon": {
                "version": __version__,
                "entities": int(self.session.num_entities),
                "pairs": int(self.session.num_pairs),
                "wal_offset": offset,
                "snapshots": len(self.session.wal.snapshot_paths()),
                "bilateral": self.session.index.bilateral,
                "pruning": self.session.pruning.name,
                "num_shards": self.num_shards,
                "online_policy": {
                    "name": self.session.online.name,
                    "threshold": float(self.session.online.threshold),
                },
                "supervision": {
                    "worker_restarts": (
                        self._supervisor.restarts if self._supervisor else 0
                    ),
                    "heartbeat_interval": self.heartbeat_interval,
                    "hang_timeout": self.hang_timeout,
                },
                "observability": {
                    "event_log": str(self.event_log) if self.event_log else None,
                    "slow_request_ms": self.slow_request_ms,
                },
                "wal_broken": bool(self.session.wal.broken),
            },
            "shards": shards,
            "metrics": self.metrics.snapshot(),
        }
