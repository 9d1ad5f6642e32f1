"""Deterministic fault-injection plans.

A :class:`FaultPlan` is a *schedule*: every fault fires at a fixed ordinal
of a per-process counter (the Nth WAL append, the Nth fsync, the Nth record
a shard replica applies, the Nth heartbeat a shard worker receives), so a
given plan produces the same failure sequence on every run — the property
the chaos suite and the recovery benchmarks lean on.  Plans serialize to
canonical JSON and travel to worker processes through the ``REPRO_FAULTS``
environment variable (see :mod:`repro.faults`).

The supported faults mirror the failure modes the serving stack must
survive:

* ``kill_worker`` — SIGKILL a shard worker the moment it applies its Nth
  WAL record (crash mid-replay);
* ``torn_append`` / ``corrupt_append`` — the Nth WAL append writes a torn
  or bit-flipped tail and fails (crash mid-commit / bit rot);
* ``fsync_error`` — the Nth WAL fsync raises ``OSError`` (full disk,
  pulled volume);
* ``slow_io_ms`` + ``slow_io_every`` — every Nth hooked I/O operation
  sleeps (degraded storage);
* ``drop_heartbeats`` — a shard worker swallows its first N pings
  (wedged-but-alive worker).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: environment variable carrying a JSON-encoded plan to child processes
FAULTS_ENV = "REPRO_FAULTS"


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault schedule (all ordinals are 1-based)."""

    #: seed the plan was generated from (recorded for reproduction)
    seed: int = 0
    #: shard -> kill the worker while applying its Nth WAL record
    kill_worker: Dict[int, int] = field(default_factory=dict)
    #: shard -> number of leading heartbeats the worker drops
    drop_heartbeats: Dict[int, int] = field(default_factory=dict)
    #: WAL append ordinals that write a torn tail and fail
    torn_append: Tuple[int, ...] = ()
    #: WAL append ordinals that write a bit-flipped tail and fail
    corrupt_append: Tuple[int, ...] = ()
    #: WAL fsync ordinals that raise an injected ``OSError``
    fsync_error: Tuple[int, ...] = ()
    #: sleep duration per slowed I/O operation
    slow_io_ms: float = 0.0
    #: slow every Nth hooked I/O operation (0 disables slow I/O)
    slow_io_every: int = 0

    def to_json(self) -> str:
        """The plan as canonical JSON (the ``REPRO_FAULTS`` payload)."""
        return json.dumps(
            {
                "seed": int(self.seed),
                "kill_worker": {
                    str(shard): int(nth) for shard, nth in sorted(self.kill_worker.items())
                },
                "drop_heartbeats": {
                    str(shard): int(count)
                    for shard, count in sorted(self.drop_heartbeats.items())
                },
                "torn_append": sorted(int(n) for n in self.torn_append),
                "corrupt_append": sorted(int(n) for n in self.corrupt_append),
                "fsync_error": sorted(int(n) for n in self.fsync_error),
                "slow_io_ms": float(self.slow_io_ms),
                "slow_io_every": int(self.slow_io_every),
            },
            separators=(",", ":"),
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, payload: str) -> "FaultPlan":
        """Decode :meth:`to_json` output (unknown keys are rejected)."""
        data = json.loads(payload)
        if not isinstance(data, dict):
            raise ValueError("a fault plan must be a JSON object")
        known = {
            "seed",
            "kill_worker",
            "drop_heartbeats",
            "torn_append",
            "corrupt_append",
            "fsync_error",
            "slow_io_ms",
            "slow_io_every",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan keys: {sorted(unknown)}")
        return cls(
            seed=int(data.get("seed", 0)),
            kill_worker={
                int(shard): int(nth)
                for shard, nth in (data.get("kill_worker") or {}).items()
            },
            drop_heartbeats={
                int(shard): int(count)
                for shard, count in (data.get("drop_heartbeats") or {}).items()
            },
            torn_append=tuple(int(n) for n in data.get("torn_append") or ()),
            corrupt_append=tuple(int(n) for n in data.get("corrupt_append") or ()),
            fsync_error=tuple(int(n) for n in data.get("fsync_error") or ()),
            slow_io_ms=float(data.get("slow_io_ms", 0.0)),
            slow_io_every=int(data.get("slow_io_every", 0)),
        )


def plan_from_env(environ: Optional[Dict[str, Any]] = None) -> Optional[FaultPlan]:
    """The plan carried by ``REPRO_FAULTS``, or ``None`` when unset/empty."""
    import os

    payload = (environ if environ is not None else os.environ).get(FAULTS_ENV)
    if not payload:
        return None
    return FaultPlan.from_json(payload)
