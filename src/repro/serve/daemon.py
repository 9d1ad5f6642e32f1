"""The ``repro serve`` daemon: concurrent ingest + snapshot-consistent reads.

Architecture (the REPL → executor → storage-engine layering, serving
edition):

* the **authority** state is one WAL-backed
  :class:`~repro.incremental.MatchingSession`; every mutation
  (``insert``/``insert_bulk``/``remove``/``update``/``checkpoint``) runs on
  a single dedicated mutation thread (the index is not thread-safe, and one
  writer keeps the WAL append order the commit order) while the asyncio
  loop keeps accepting connections;
* **reads** (``match``/``top_k``/``stats``) are served from K long-lived
  shard worker processes (:mod:`repro.serve.workers`), each owning one
  signature shard replicated by tailing the same WAL — eagerly: the
  mutation thread wakes the router's follower after every applied write, so
  the workers replay it while they would otherwise idle.  A read pins the
  WAL offset inside the router's fan-out, once every worker's lock is held
  (:mod:`repro.serve.router`), and the router assembles the per-shard
  states at that offset into a merged read view, so every response equals
  the canonical view as of the offset it reports — writes arriving *during*
  the query change nothing the query sees;
* reads run on their own single dispatch thread; the offsets the workers
  see are monotone because every one of them — a read's, a ``stats``', a
  follow's — is taken under the workers' locks (replicas never rewind).

Durability: mutations are journaled before they are applied (the session's
WAL discipline), and a SIGTERM/SIGINT drains in-flight requests, writes a
final checkpoint, fsyncs and exits cleanly — ``repro serve --recover``
resumes the identical retained set.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Dict, Optional, Tuple

from .. import __version__
from ..incremental.index import DuplicateEntityError, UnknownEntityError
from ..incremental.session import MatchingSession
from ..obs import events
from ..obs.registry import MetricsRegistry, process_rss_bytes, render_prometheus
from ..obs.trace import RequestTrace, activate, hook_span, mint_trace_id
from ..persistence.log import WalBrokenError, WriteAheadLog
from .protocol import (
    ERROR_DEADLINE,
    ERROR_OVERLOADED,
    ERROR_UNAVAILABLE,
    ERROR_WAL,
    OPERATIONS,
    PROTOCOL_VERSION,
    ProtocolError,
    error_response,
    ok_response,
    profile_from_wire,
    read_message,
    write_message,
)
from .router import ShardRouter, match_answer, top_k_answer
from .supervision import WorkerSupervisor
from .workers import WalFollowError, WorkerError

#: operations serialized on the mutation thread
MUTATION_OPS = frozenset({"insert", "insert_bulk", "remove", "update", "checkpoint"})
#: operations served from the pinned shard-worker views
READ_OPS = frozenset({"match", "top_k", "stats"})


class OverloadedError(RuntimeError):
    """The target queue is at capacity; the request was shed unprocessed."""


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed before the operation was applied."""


class UnavailableError(RuntimeError):
    """A shard worker is down/rebuilding and degraded reads are disabled."""


class WalFailedError(RuntimeError):
    """The write-ahead log failed; the mutation was neither logged nor applied."""


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
    drain_timeout:
        Seconds to wait for in-flight requests on shutdown before
        cancelling their connections.
    announce:
        Print a one-line JSON ``{"event": "serving", ...}`` banner once the
        socket is bound (the CLI and the end-to-end tests parse it).
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
        online: str = "wep",
        top_k: int = 1000,
        snapshot_every: Optional[int] = None,
        wal_sync: str = "always",
        recover: bool = False,
        start_method: Optional[str] = None,
        drain_timeout: float = 10.0,
        announce: bool = False,
        degraded_reads: bool = True,
        heartbeat_interval: float = 1.0,
        hang_timeout: float = 5.0,
        spawn_grace: float = 10.0,
        max_pending_mutations: int = 256,
        max_pending_reads: int = 256,
        adopt_min_gap: Optional[int] = None,
        delta_shipping: bool = True,
        event_log=None,
        slow_request_ms: Optional[float] = None,
        tracing: bool = True,
    ) -> None:
        # refused before the session writes its log, snapshot or checkpoint
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
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
        self.tracing = bool(tracing)
        self._logger = events.get_logger(__name__)
        allow_from_zero = True
        if recover:
            self.session = MatchingSession.recover(wal_path, sync=wal_sync)
            # recovery adopted the authority from a snapshot's compacted
            # state, renumbering node ids — the log's earlier records describe
            # the *previous* node space and must never be replayed by a replica.
            # Write a floor checkpoint of the recovered state (slot layout
            # included): workers adopt it (or anything newer) and replay
            # only the tail past it, in the authority's node space.
            floor_path = self.session.checkpoint()
            adopt_floor = WriteAheadLog._snapshot_sequence(floor_path)
            allow_from_zero = False
        else:
            if model is None:
                raise ValueError("a fresh daemon needs a frozen model")
            self.session = MatchingSession(
                model,
                bilateral=bilateral,
                pruning=pruning,
                online=online,
                top_k=top_k,
                wal_path=wal_path,
                snapshot_every=snapshot_every,
                wal_sync=wal_sync,
            )
            # a fresh session requires an empty WAL directory and writes
            # snapshot 1 immediately, so every snapshot is adoptable and a
            # from-zero replay is equally valid
            adopt_floor = 1
        self.wal_path = wal_path
        self.host = host
        self.port = port
        self.num_shards = num_shards
        self.drain_timeout = drain_timeout
        self.announce = announce
        self.degraded_reads = degraded_reads
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.spawn_grace = spawn_grace
        self.max_pending_mutations = max_pending_mutations
        self.max_pending_reads = max_pending_reads
        self.delta_shipping = delta_shipping
        self.metrics = MetricsRegistry()
        # one serial per applied mutation; the router samples it whenever it
        # pins an offset (``serial_source``) — for a read or for a follow —
        # which makes per-shard replication lag measurable in *records*
        self._mutation_serial = 0
        # entity ids by node come from the authority index's append-only
        # registry: node slots are never reused, so the live resolver is
        # correct for every node visible at any pinned offset
        self.router = ShardRouter(
            wal_path,
            num_shards,
            self.session.index.entity_id,
            start_method=start_method,
            adopt_floor=adopt_floor,
            allow_from_zero=allow_from_zero,
            adopt_min_gap=adopt_min_gap,
            metrics=self.metrics,
            delta_shipping=delta_shipping,
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
        self._pending_mutations = 0
        self._pending_reads = 0

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
            self._handle_connection, self.host, self.port
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
            await loop.run_in_executor(self._mutator, self._final_checkpoint)
            self._mutator.shutdown(wait=True)
            self._reader.shutdown(wait=True)
            # no write is left to follow; join the follower while the
            # supervisor can still unblock a follow stuck on a wedged worker
            self.router.stop_following()
            if self._supervisor is not None:
                self._supervisor.stop()
            self.router.stop()
            self._remove_signal_handlers(loop)
            events.emit("daemon_stopped")

    def serve(self) -> int:
        """Blocking entry point; returns the process exit code."""
        asyncio.run(self.run())
        return 0

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
        done, pending = await asyncio.wait(tasks, timeout=self.drain_timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def _final_checkpoint(self) -> None:
        """The shutdown commit: one last snapshot, fsync, close.

        A broken WAL (failed mid-append and unrepaired) cannot take the
        shutdown snapshot; everything acked is already durable in the log,
        so shutdown proceeds rather than hanging the exit path.
        """
        try:
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
        request_id = message.get("id")
        op = message.get("op")
        args = message.get("args") or {}
        # the trace id is the request's identity across threads, worker
        # processes and the event log: a client-supplied one is honoured
        # (v2 envelopes), otherwise the daemon mints one (v1 clients)
        supplied = message.get("trace")
        trace_id = (
            supplied if isinstance(supplied, str) and supplied else mint_trace_id()
        )
        if op not in OPERATIONS:
            return error_response(
                request_id, "protocol", f"unknown op {op!r}", trace=trace_id
            )
        if not isinstance(args, dict):
            return error_response(
                request_id, "protocol", "'args' must be an object", trace=trace_id
            )
        deadline_ms = message.get("deadline_ms")
        deadline: Optional[float] = None
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                return error_response(
                    request_id,
                    "bad_request",
                    "'deadline_ms' must be a positive number",
                    trace=trace_id,
                )
            deadline = time.monotonic() + float(deadline_ms) / 1e3
        trace = RequestTrace(trace_id, str(op), enabled=self.tracing)
        events.emit("request_start", trace=trace_id, op=str(op))
        start = time.perf_counter()
        ok = True
        error_type: Optional[str] = None
        try:
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
            elif op in MUTATION_OPS:
                result = await self._run_mutation(op, args, deadline, trace)
            else:
                result = await self._run_read(op, args, deadline, trace)
            return ok_response(request_id, result, trace=trace_id)
        except OverloadedError as error:
            ok, error_type = False, ERROR_OVERLOADED
            self.metrics.increment(
                "shed_mutations" if op in MUTATION_OPS else "shed_reads"
            )
            return error_response(request_id, ERROR_OVERLOADED, str(error), trace=trace_id)
        except DeadlineExceededError as error:
            ok, error_type = False, ERROR_DEADLINE
            self.metrics.increment("deadline_exceeded")
            return error_response(request_id, ERROR_DEADLINE, str(error), trace=trace_id)
        except UnavailableError as error:
            ok, error_type = False, ERROR_UNAVAILABLE
            return error_response(
                request_id, ERROR_UNAVAILABLE, str(error), trace=trace_id
            )
        except WalFailedError as error:
            ok, error_type = False, ERROR_WAL
            self.metrics.increment("wal_failures")
            return error_response(request_id, ERROR_WAL, str(error), trace=trace_id)
        except UnknownEntityError as error:
            ok, error_type = False, "unknown_entity"
            return error_response(
                request_id, "unknown_entity", str(error), trace=trace_id
            )
        except DuplicateEntityError as error:
            ok, error_type = False, "duplicate_entity"
            return error_response(
                request_id, "duplicate_entity", str(error), trace=trace_id
            )
        except (ProtocolError, KeyError, TypeError, ValueError) as error:
            ok, error_type = False, "bad_request"
            return error_response(
                request_id,
                "bad_request",
                f"{type(error).__name__}: {error}",
                trace=trace_id,
            )
        except Exception as error:  # noqa: BLE001 - the daemon must not die
            ok, error_type = False, "internal"
            self._logger.error(
                "unhandled error serving %s: %s",
                op,
                error,
                exc_info=True,
                extra={"trace_id": trace_id},
            )
            return error_response(
                request_id,
                "internal",
                f"{type(error).__name__}: {error}",
                trace=trace_id,
            )
        finally:
            elapsed = time.perf_counter() - start
            self.metrics.record(str(op), elapsed, ok)
            self._finish_request(trace, str(op), ok, error_type, elapsed, deadline)

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

    async def _run_mutation(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        if self._pending_mutations >= self.max_pending_mutations:
            raise OverloadedError(
                f"mutation queue is full ({self.max_pending_mutations} pending); "
                "retry after backoff"
            )
        self._pending_mutations += 1
        self.metrics.adjust_gauge("mutation_queue_depth", 1)
        enqueued = time.perf_counter()
        try:
            return await self._loop.run_in_executor(
                self._mutator,
                lambda: self._mutate_checked(op, args, deadline, trace, enqueued),
            )
        finally:
            self._pending_mutations -= 1
            self.metrics.adjust_gauge("mutation_queue_depth", -1)

    async def _run_read(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float] = None,
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        if self._pending_reads >= self.max_pending_reads:
            raise OverloadedError(
                f"read queue is full ({self.max_pending_reads} pending); "
                "retry after backoff"
            )
        self._pending_reads += 1
        self.metrics.adjust_gauge("read_queue_depth", 1)
        enqueued = time.perf_counter()
        try:
            return await self._loop.run_in_executor(
                self._reader,
                lambda: self._read_checked(op, args, deadline, trace, enqueued),
            )
        finally:
            self._pending_reads -= 1
            self.metrics.adjust_gauge("read_queue_depth", -1)

    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceededError("deadline exceeded before the operation ran")

    def _mutate_checked(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
        enqueued: Optional[float] = None,
    ) -> Any:
        if trace is not None and enqueued is not None:
            trace.add_span(
                "queue-wait",
                (time.perf_counter() - enqueued) * 1e3,
                queue="mutation",
            )
        # the deadline is re-checked HERE, on the mutation thread, before
        # anything is journaled or applied: a mutation that fails with
        # `deadline` was unambiguously NOT applied (clients must never
        # retry a non-idempotent op whose deadline raced the apply)
        self._check_deadline(deadline)
        try:
            # the active trace lets deep layers (the WAL append/fsync hook
            # spans) attribute their time to this request without plumbing
            with activate(trace):
                with trace.span("mutate") if trace is not None else nullcontext():
                    result = self._mutate(op, args)
        except WalBrokenError as error:
            raise WalFailedError(str(error)) from error
        except OSError as error:
            raise WalFailedError(
                f"write-ahead log failure; the operation was not applied: {error}"
            ) from error
        if op != "checkpoint":
            self._mutation_serial += 1
            # the workers replay it now, not inside the next read
            self.router.notify_write()
        return result

    def _read_checked(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
        enqueued: Optional[float] = None,
    ) -> Any:
        if trace is not None and enqueued is not None:
            trace.add_span(
                "queue-wait", (time.perf_counter() - enqueued) * 1e3, queue="read"
            )
        self._check_deadline(deadline)
        try:
            with activate(trace):
                return self._read(op, args)
        except (WorkerError, WalFollowError) as error:
            if self._supervisor is not None:
                self._supervisor.kick()
            if self.degraded_reads and op in ("match", "top_k"):
                self.metrics.increment("degraded_reads")
                events.emit(
                    "degraded_read",
                    trace=trace.trace_id if trace is not None else None,
                    op=op,
                    cause=f"{type(error).__name__}: {error}"[:200],
                )
                return self._mutator.submit(
                    self._degraded_read, op, args, deadline, trace
                ).result()
            raise UnavailableError(
                f"shard workers unavailable ({error}); degraded reads are off"
            ) from None

    def _degraded_read(
        self,
        op: str,
        args: Dict[str, Any],
        deadline: Optional[float],
        trace: Optional[RequestTrace] = None,
    ) -> Any:
        """Serve a read directly from the authority index.

        Runs on the mutation thread — the authority index is not
        thread-safe, so a degraded read serializes with writes; the answer
        reflects the current offset (fresh, not the originally pinned one)
        and carries ``degraded: true``.  This is the availability escape
        hatch while a shard worker is being respawned and re-bootstrapped.
        """
        self._check_deadline(deadline)
        span = (
            trace.span("degraded-read", op=op)
            if trace is not None
            else nullcontext()
        )
        with activate(trace), span:
            index = self.session.index
            offset = self._offset()
            if op == "match":
                answer = match_answer(index, self.session.model, self.session.pruning)
                answer["offset"] = offset
                answer["degraded"] = True
                return answer
            entity_id = str(args["entity_id"])
            side = int(args.get("side", 0))
            node = index.node_of(entity_id, side=side)
            return {
                "offset": offset,
                "entity_id": entity_id,
                "degraded": True,
                "matches": top_k_answer(
                    index, self.session.model, node, int(args.get("k", 10))
                ),
            }

    # -- mutation thread ---------------------------------------------------------
    def _offset(self) -> int:
        return int(self.session.wal.log_offset)

    def _mutate(self, op: str, args: Dict[str, Any]) -> Any:
        if op == "insert":
            result = self.session.insert(
                profile_from_wire(args["profile"]), side=int(args.get("side", 0))
            )
            return {
                "entity_id": result.entity_id,
                "node": int(result.node),
                "num_new_pairs": int(result.num_new_pairs),
                "matches": [
                    [entity_id, probability] for entity_id, probability in result.matches
                ],
                "offset": self._offset(),
            }
        if op == "insert_bulk":
            profiles = [profile_from_wire(entry) for entry in args["profiles"]]
            side = int(args.get("side", 0))
            result = self.session.insert_bulk(profiles, side=side)
            return {
                "entity_ids": list(result.entity_ids),
                "num_new_pairs": int(result.num_new_pairs),
                "num_admitted": int(result.num_admitted),
                "offset": self._offset(),
            }
        if op == "remove":
            result = self.session.remove(
                str(args["entity_id"]), side=int(args.get("side", 0))
            )
            return {
                "entity_id": result.entity_id,
                "num_retracted_pairs": int(result.num_retracted_pairs),
                "offset": self._offset(),
            }
        if op == "update":
            result = self.session.update(
                profile_from_wire(args["profile"]), side=int(args.get("side", 0))
            )
            return {
                "entity_id": result.inserted.entity_id,
                "num_retracted_pairs": int(result.removed.num_retracted_pairs),
                "num_new_pairs": int(result.inserted.num_new_pairs),
                "matches": [
                    [entity_id, probability]
                    for entity_id, probability in result.inserted.matches
                ],
                "offset": self._offset(),
            }
        if op == "checkpoint":
            path = self.session.checkpoint()
            return {"snapshot": str(path), "offset": self._offset()}
        raise ProtocolError(f"unroutable mutation {op!r}")  # pragma: no cover

    # -- read thread -------------------------------------------------------------
    def _read(self, op: str, args: Dict[str, Any]) -> Any:
        # the router pins: it reads its ``offset_source`` (``_offset``, handed
        # over at construction) inside its fan-out, once every worker's lock
        # is held, and hands the pin back for the response.  An
        # offset read out here could already be behind a worker by the time
        # the locks are taken — the follower keeps moving them forward
        if op == "match":
            view, _, offset = self.router.pinned_view()
            with hook_span("score-and-prune"):
                answer = match_answer(view, self.session.model, self.session.pruning)
            answer["offset"] = offset
            return answer
        if op == "top_k":
            entity_id = str(args["entity_id"])
            side = int(args.get("side", 0))
            view, node, offset = self.router.pinned_view(lookup=(side, entity_id))
            if node < 0:
                raise UnknownEntityError(entity_id, side)
            with hook_span("score-top-k"):
                matches = top_k_answer(
                    view, self.session.model, node, int(args.get("k", 10))
                )
            return {"offset": offset, "entity_id": entity_id, "matches": matches}
        if op == "stats":
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
                        "degraded_reads": "on" if self.degraded_reads else "off",
                        "heartbeat_interval": self.heartbeat_interval,
                        "hang_timeout": self.hang_timeout,
                    },
                    "delta_shipping": "on" if self.delta_shipping else "off",
                    "observability": {
                        "tracing": "on" if self.tracing else "off",
                        "event_log": str(self.event_log) if self.event_log else None,
                        "slow_request_ms": self.slow_request_ms,
                    },
                    "wal_broken": bool(self.session.wal.broken),
                },
                "shards": shards,
                "metrics": self.metrics.snapshot(),
            }
        raise ProtocolError(f"unroutable read {op!r}")  # pragma: no cover
