"""``repro.faults``: seeded, deterministic fault injection.

The injection runtime is a set of *hooks* threaded through the durability
and serving layers — :meth:`WriteAheadLog.append_record`, the shard
replicas' record apply loop, the worker heartbeat handler — that normally
cost one ``None`` check.  When a :class:`FaultPlan` is active (installed
in-process with :func:`install`, or inherited by a child process through
the ``REPRO_FAULTS`` environment variable), each hook consults the plan's
schedule against a per-process ordinal counter and fires the configured
fault at exactly the configured point.

Faults that are scoped to one shard worker (``kill_worker``,
``drop_heartbeats``) only fire in a process that declared that scope with
:func:`set_scope` — the daemon process itself never self-destructs on a
worker's schedule.

Determinism: every trigger is counter-based (the Nth append, the Nth
applied record), never time- or randomness-based, so a plan replays the
identical failure sequence on every run.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional

from .plan import FAULTS_ENV, FaultPlan, plan_from_env


def _emit_fault(kind: str, **fields) -> None:
    """Record the injection in the structured event log (best-effort).

    Emitted — and flushed, :func:`repro.obs.events.emit` flushes per
    line — *before* the fault fires, so even a SIGKILL fault leaves its
    own event on disk for the causal chain.
    """
    try:
        from ..obs import events

        events.emit("fault_injected", kind=kind, shard=_scope_shard, **fields)
    except Exception:  # noqa: BLE001 - observability must not alter the fault
        pass

__all__ = [
    "FAULTS_ENV",
    "FaultPlan",
    "InjectedFaultError",
    "active_plan",
    "clear",
    "install",
    "on_follower_read",
    "on_heartbeat",
    "on_record_applied",
    "on_wal_append",
    "on_wal_fsync",
    "plan_from_env",
    "set_scope",
]


class InjectedFaultError(OSError):
    """An injected fault fired (an ``OSError``, like the failure it mimics)."""


_lock = threading.Lock()
# held across a fork, as ``repro.obs.events`` holds its own: a worker must
# not start with a lock another thread of its parent was holding
os.register_at_fork(
    before=_lock.acquire, after_in_parent=_lock.release, after_in_child=_lock.release
)
_plan: Optional[FaultPlan] = None
#: whether ``_plan`` is authoritative (set) or the env still needs parsing
_resolved = False
#: the shard this process serves, when it is a shard worker
_scope_shard: Optional[int] = None
_counters: Dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` in this process (``None`` deactivates).

    Resets the ordinal counters, so an installed plan always counts from
    the first append/record/heartbeat.  Child processes do not see an
    in-process installation unless they fork afterwards — export the plan
    through ``os.environ[FAULTS_ENV] = plan.to_json()`` to reach workers
    started with any start method.
    """
    global _plan, _resolved
    with _lock:
        _plan = plan
        _resolved = True
        _counters.clear()


def clear() -> None:
    """Deactivate injection and forget any ``REPRO_FAULTS`` already parsed."""
    global _plan, _resolved, _scope_shard
    with _lock:
        _plan = None
        _resolved = False
        _scope_shard = None
        _counters.clear()


def set_scope(shard: Optional[int]) -> None:
    """Declare this process to be the worker of ``shard``.

    Shard-scoped faults (``kill_worker``, ``drop_heartbeats``) fire only in
    a process whose scope matches their shard.
    """
    global _scope_shard
    _scope_shard = shard


def active_plan() -> Optional[FaultPlan]:
    """The plan in force: the installed one, else the ``REPRO_FAULTS`` one.

    The environment is parsed once per process; :func:`clear` re-arms the
    parse (tests flip the variable between daemons).
    """
    global _plan, _resolved
    if not _resolved:
        with _lock:
            if not _resolved:
                _plan = plan_from_env()
                _resolved = True
    return _plan


def _count(name: str) -> int:
    with _lock:
        value = _counters.get(name, 0) + 1
        _counters[name] = value
    return value


def _maybe_slow(plan: FaultPlan) -> None:
    if plan.slow_io_every <= 0 or plan.slow_io_ms <= 0.0:
        return
    if _count("io") % plan.slow_io_every == 0:
        time.sleep(plan.slow_io_ms / 1e3)


# -- hook points -------------------------------------------------------------------

def on_wal_append() -> Optional[str]:
    """Called before each WAL append; returns ``"torn"``/``"corrupt"``/``None``.

    Also the append-side slow-I/O site.
    """
    plan = active_plan()
    if plan is None:
        return None
    _maybe_slow(plan)
    ordinal = _count("append")
    if ordinal in plan.torn_append:
        _emit_fault("torn_append", ordinal=ordinal)
        return "torn"
    if ordinal in plan.corrupt_append:
        _emit_fault("corrupt_append", ordinal=ordinal)
        return "corrupt"
    return None


def on_wal_fsync() -> None:
    """Called before each WAL fsync; raises on a scheduled fsync fault."""
    plan = active_plan()
    if plan is None:
        return
    ordinal = _count("fsync")
    if ordinal in plan.fsync_error:
        _emit_fault("fsync_error", ordinal=ordinal)
        raise InjectedFaultError("injected fsync failure")


def on_follower_read() -> None:
    """The replica-side slow-I/O site (each ``advance_to`` pass)."""
    plan = active_plan()
    if plan is not None:
        _maybe_slow(plan)


def on_record_applied() -> None:
    """Called after a shard replica applies one WAL record.

    SIGKILLs the process when this scope's kill ordinal is reached — a
    crash mid-replay, with whatever state the replica had half-built.
    """
    plan = active_plan()
    if plan is None or _scope_shard is None:
        return
    nth = plan.kill_worker.get(_scope_shard)
    if nth is not None and _count("applied") == nth:
        import signal

        # flushed before the kill: the event log must witness its own cause
        _emit_fault("kill_worker", ordinal=nth)
        os.kill(os.getpid(), signal.SIGKILL)


def on_heartbeat() -> bool:
    """Whether this scope's worker should swallow the current ping."""
    plan = active_plan()
    if plan is None or _scope_shard is None:
        return False
    budget = plan.drop_heartbeats.get(_scope_shard, 0)
    dropped = budget > 0 and _count("heartbeat") <= budget
    if dropped:
        _emit_fault("drop_heartbeat")
    return dropped
