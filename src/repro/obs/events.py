"""The structured event log: one JSON line per typed event, per process.

The sink is a *directory* (daemon flag ``--event-log DIR``, env
``REPRO_EVENT_LOG``); every participating process appends to its own
``events-<role>-<pid>.jsonl`` file inside it, so the daemon and its shard
workers (fork or spawn — the directory travels in the environment) write
concurrently without coordination.  Each
line is one canonical-JSON object::

    {"ts": <epoch seconds>, "seq": <per-process ordinal>, "pid": ...,
     "role": "daemon"|"shard0"|..., "type": <event type>, ...fields}

``read_events`` merges the directory back into one stream ordered by
``(ts, pid, seq)`` — the per-process ``seq`` makes each process's own
ordering exact even when timestamps collide.

Emission is designed for the hot path: when no sink is configured,
:func:`emit` is one module-attribute check; when one is, it is a dict
build, a ``json.dumps`` and one locked buffered write + flush (flushed
per event so a SIGKILLed worker loses at most the event being written).

The module also backs the project's ``logging`` pipeline:
:func:`get_logger` returns a stdlib logger whose records are mirrored
into the event log as ``type: "log"`` events (with the trace id when the
call site passes ``extra={"trace_id": ...}``) and to stderr from WARNING
up — the replacement for ``traceback.print_exc()`` and bare prints.
"""

from __future__ import annotations

import io
import json
import logging
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = [
    "EVENT_LOG_ENV",
    "configure",
    "configured_dir",
    "emit",
    "get_logger",
    "read_events",
    "set_role",
    "summarize_events",
]

#: environment variable naming the event-log directory; exported by
#: :func:`configure` so worker processes (fork or spawn) inherit the sink
EVENT_LOG_ENV = "REPRO_EVENT_LOG"

_lock = threading.Lock()
#: the configured directory (None = disabled); resolved from the
#: environment on first use when never configured explicitly
_dir: Optional[Path] = None
_resolved = False
_role = "main"
_seq = 0
_file: Optional[io.TextIOWrapper] = None
#: pid the open file belongs to — a fork must not write the parent's file
_file_pid: Optional[int] = None


def configure(
    directory: Optional[os.PathLike], role: Optional[str] = None, export_env: bool = True
) -> None:
    """Set (or with ``None`` clear) this process's event sink.

    ``export_env`` mirrors the setting into ``REPRO_EVENT_LOG`` so child
    processes started afterwards — shard workers under either start
    method — log into the same directory.  Clearing also clears the
    environment, so one daemon's sink never leaks into the next daemon
    constructed in the same process (the test suite runs many).
    """
    global _dir, _resolved, _role, _file, _file_pid, _seq
    with _lock:
        _close_locked()
        _dir = Path(directory) if directory is not None else None
        _resolved = True
        _seq = 0  # a rebound sink starts a fresh per-process stream
        if role is not None:
            _role = role
        if export_env:
            if _dir is not None:
                os.environ[EVENT_LOG_ENV] = str(_dir)
            else:
                os.environ.pop(EVENT_LOG_ENV, None)
        if _dir is not None:
            _dir.mkdir(parents=True, exist_ok=True)


def set_role(role: str) -> None:
    """Name this process in its event records (``daemon``, ``shard0``, ...)."""
    global _role, _file, _file_pid
    with _lock:
        if role != _role:
            _role = role
            _close_locked()


def configured_dir() -> Optional[Path]:
    """The active sink directory, resolving ``REPRO_EVENT_LOG`` lazily."""
    global _dir, _resolved
    if not _resolved:
        with _lock:
            if not _resolved:
                env = os.environ.get(EVENT_LOG_ENV)
                _dir = Path(env) if env else None
                _resolved = True
    return _dir


def _close_locked() -> None:
    global _file, _file_pid
    if _file is not None:
        try:
            _file.close()
        except OSError:
            pass
    _file = None
    _file_pid = None


def _open_locked(directory: Path) -> Optional[io.TextIOWrapper]:
    """The per-process sink file, (re)opened after a fork or role change."""
    global _file, _file_pid
    pid = os.getpid()
    if _file is None or _file_pid != pid:
        _close_locked()
        try:
            directory.mkdir(parents=True, exist_ok=True)
            _file = open(
                directory / f"events-{_role}-{pid}.jsonl", "a", encoding="utf-8"
            )
            _file_pid = pid
        except OSError:
            _file = None
            _file_pid = None
    return _file


def emit(event_type: str, **fields: Any) -> None:
    """Append one typed event; a no-op when no sink is configured.

    The event is flushed before returning, so a process killed right
    after emitting (the fault injector's SIGKILL) leaves the event on
    disk.  Emission never raises: a failing sink drops the event rather
    than failing the operation being observed.
    """
    directory = configured_dir()
    if directory is None:
        return
    global _seq
    with _lock:
        handle = _open_locked(directory)
        if handle is None:
            return
        _seq += 1
        record = {
            "ts": round(time.time(), 6),
            "seq": _seq,
            "pid": os.getpid(),
            "role": _role,
            "type": event_type,
        }
        record.update(fields)
        try:
            handle.write(
                json.dumps(record, separators=(",", ":"), sort_keys=True, default=str)
                + "\n"
            )
            handle.flush()
        except (OSError, ValueError):
            _close_locked()


# -- reading an event-log directory back ------------------------------------------

def read_events(directory: os.PathLike) -> List[Dict[str, Any]]:
    """Every event in ``directory``, merged and ordered by ``(ts, pid, seq)``.

    Torn final lines (a process killed mid-write) are dropped, mirroring
    the WAL's replay-to-last-complete-record discipline.
    """
    events: List[Dict[str, Any]] = []
    for path in sorted(Path(directory).glob("events-*.jsonl")):
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn tail of a killed process
            if isinstance(event, dict):
                events.append(event)
    events.sort(
        key=lambda e: (e.get("ts", 0.0), e.get("pid", 0), e.get("seq", 0))
    )
    return events


def summarize_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Counts by type/role plus request outcome totals, for ``repro trace``."""
    by_type: Dict[str, int] = {}
    by_role: Dict[str, int] = {}
    requests = ok = failed = 0
    slowest: List[Dict[str, Any]] = []
    for event in events:
        by_type[event.get("type", "?")] = by_type.get(event.get("type", "?"), 0) + 1
        by_role[event.get("role", "?")] = by_role.get(event.get("role", "?"), 0) + 1
        if event.get("type") == "request":
            requests += 1
            if event.get("ok"):
                ok += 1
            else:
                failed += 1
            slowest.append(event)
    slowest.sort(key=lambda e: -float(e.get("duration_ms", 0.0)))
    return {
        "events": len(events),
        "by_type": dict(sorted(by_type.items())),
        "by_role": dict(sorted(by_role.items())),
        "requests": {"total": requests, "ok": ok, "failed": failed},
        "slowest": slowest[:10],
    }


# -- the logging pipeline ----------------------------------------------------------

class EventLogHandler(logging.Handler):
    """Mirror every log record into the event log as a ``log`` event."""

    def emit(self, record: logging.LogRecord) -> None:  # noqa: A003
        try:
            fields: Dict[str, Any] = {
                "level": record.levelname,
                "logger": record.name,
                "message": record.getMessage(),
            }
            trace_id = getattr(record, "trace_id", None)
            if trace_id is not None:
                fields["trace"] = trace_id
            if record.exc_info and record.exc_info[0] is not None:
                fields["exception"] = logging.Formatter().formatException(
                    record.exc_info
                )
            emit("log", **fields)
        except Exception:  # noqa: BLE001 - logging must never raise
            pass


_logging_configured = False


def _configure_logging() -> None:
    """Attach the event-log + stderr handlers to the ``repro`` root logger.

    Idempotent, and process-local state only — safe under fork and spawn
    (each worker configures its own handlers on first use).  Nothing is
    attached to the *global* root logger, so embedding applications keep
    full control of their own logging tree.
    """
    global _logging_configured
    if _logging_configured:
        return
    with _lock:
        if _logging_configured:
            return
        root = logging.getLogger("repro")
        root.setLevel(logging.INFO)
        root.propagate = False
        if not any(isinstance(h, EventLogHandler) for h in root.handlers):
            root.addHandler(EventLogHandler())
            stderr = logging.StreamHandler(sys.stderr)
            stderr.setLevel(logging.WARNING)
            stderr.setFormatter(
                logging.Formatter(
                    "%(asctime)s %(levelname)s %(name)s: %(message)s"
                )
            )
            root.addHandler(stderr)
        _logging_configured = True


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy wired to the event pipeline.

    Diagnostics logged here reach (1) the structured event log, when one
    is configured, and (2) stderr from WARNING upward — the project-wide
    replacement for ``print`` / ``traceback.print_exc`` diagnostics.
    Pass ``extra={"trace_id": ...}`` to stamp a record with its request.
    """
    _configure_logging()
    if not name.startswith("repro"):
        name = f"repro.{name}"
    return logging.getLogger(name)
