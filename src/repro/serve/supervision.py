"""Worker supervision: heartbeat, hang detection, respawn.

A :class:`WorkerSupervisor` runs one daemon thread over the router's
fleet.  Each cycle it classifies every shard worker:

* **dead** — the process pid is gone.  Respawned immediately, no grace.
* **idle** — the handle's lock is free.  The supervisor takes the lock and
  heartbeats (:meth:`ShardWorkerHandle.ping_within`).  One missed
  heartbeat is fatal: after a timed-out ping the pipe may hold a late
  reply, so the worker cannot be trusted again — it is killed and
  replaced.
* **busy** — a request is in flight (``busy_since`` set).  The worker is
  healthy as long as the request is younger than ``hang_timeout``; past
  it, the worker is presumed wedged and respawned.  The SIGKILL doubles as
  the unblocking mechanism: whoever is waiting on the old pipe gets EOF
  and a :class:`~repro.serve.workers.WorkerError`.

Freshly spawned workers get ``spawn_grace`` seconds before heartbeat and
hang checks apply (checkpoint adoption keeps bootstrap short, but the
first catch-up may still replay a tail) — only the dead-pid check runs
during the grace period.

Respawn goes through :meth:`ShardRouter.respawn`, which spawns the
replacement before swapping, so the shard's downtime is one swap, and
passes the old handle as ``expected`` so a concurrent detector of the same
failure cannot double-respawn.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Optional

from ..obs import events
from .router import ShardRouter
from .workers import ShardWorkerHandle


def check_timing(heartbeat_interval: float, hang_timeout: float) -> None:
    """Refuse supervision periods that are not above zero: a zero heartbeat
    makes the supervision loop spin, and a zero hang timeout declares every
    worker wedged once its spawn grace ends."""
    for name, seconds in (
        ("heartbeat_interval", heartbeat_interval),
        ("hang_timeout", hang_timeout),
    ):
        if not seconds > 0:
            raise ValueError(f"{name} must be above 0 seconds, got {seconds}")


def _pid_alive(pid: Optional[int]) -> bool:
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


class WorkerSupervisor:
    """Heartbeats the shard fleet and replaces crashed or wedged workers."""

    def __init__(
        self,
        router: ShardRouter,
        metrics=None,
        *,
        heartbeat_interval: float = 1.0,
        hang_timeout: float = 5.0,
        spawn_grace: float = 10.0,
        on_restart: Optional[Callable[[int, str], None]] = None,
    ) -> None:
        check_timing(heartbeat_interval, hang_timeout)
        self.router = router
        self.metrics = metrics
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        self.spawn_grace = spawn_grace
        self.on_restart = on_restart
        self.restarts = 0
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "WorkerSupervisor":
        if self._thread is None:
            self._stopping.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-serve-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        self._wake.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=max(5.0, 2 * self.hang_timeout))

    def kick(self) -> None:
        """Request an immediate check cycle (called when a read fails on a
        worker error — the failure is the strongest liveness signal)."""
        self._wake.set()

    def _run(self) -> None:
        while not self._stopping.is_set():
            try:
                self.check_once()
            except Exception:  # noqa: BLE001 - supervision must never die
                pass
            self._wake.wait(self.heartbeat_interval)
            self._wake.clear()

    # -- one supervision cycle ---------------------------------------------------
    def check_once(self) -> int:
        """Classify every worker once; returns the number respawned."""
        respawned = 0
        for handle in self.router.handles():
            if self._stopping.is_set():
                break
            if self._check_handle(handle):
                respawned += 1
        return respawned

    def _check_handle(self, handle: ShardWorkerHandle) -> bool:
        now = time.monotonic()
        if not _pid_alive(handle.pid) or not handle.alive:
            self._respawn(handle, "dead")
            return True
        if now - handle.spawned_at < self.spawn_grace:
            return False
        if handle.lock.acquire(blocking=False):
            try:
                busy = handle.busy_since is not None
                if not busy and not handle.ping_within(self.hang_timeout):
                    self._respawn(handle, "missed heartbeat")
                    return True
            finally:
                handle.lock.release()
            return False
        busy_since = handle.busy_since
        if busy_since is not None and now - busy_since > self.hang_timeout:
            self._respawn(handle, "hung request")
            return True
        return False

    def _respawn(self, handle: ShardWorkerHandle, reason: str) -> None:
        old_pid = handle.pid
        if reason == "missed heartbeat":
            events.emit("heartbeat_miss", shard=handle.shard, pid=old_pid)
        elif reason == "hung request":
            events.emit("worker_hang", shard=handle.shard, pid=old_pid)
        elif reason == "dead":
            events.emit("worker_dead", shard=handle.shard, pid=old_pid)
        replacement = self.router.respawn(handle.shard, expected=handle)
        if replacement is None:
            return  # router stopped, or another detector already replaced it
        self.restarts += 1
        events.emit(
            "worker_respawn",
            shard=handle.shard,
            reason=reason,
            old_pid=old_pid,
            new_pid=replacement.pid,
        )
        if self.metrics is not None:
            self.metrics.increment("worker_restarts")
        if self.on_restart is not None:
            try:
                self.on_restart(handle.shard, reason)
            except Exception:  # noqa: BLE001 - observer must not break supervision
                pass
