"""Where recovery-to-serving spends its time: ``serve_mixed``'s cold start.

    python3 benchmarks/start_budget.py [--seed 1]

``recover_ms`` on ``serve_mixed`` is the wall-clock from spawning ``repro
serve --recover`` on a crashed daemon's WAL directory to its first correct
``match`` — most of it spent before the program runs a line of its own.  This
is the instrument for that path, beside the ledger like ``profile_answer.py``
and ``serve_budget.py`` and importing it the same way (``ledger_spec``,
``ledger_workloads``, ``ledger_stats``; nothing under ``benchmarks/ledger/``
knows about it): the workload's own set-up, warm-up rounds and
``prepare_recovery()``, then ``RECOVERIES`` un-instrumented ``recover_once()``
whose per-stage min / median / ledger floor are printed *first* — the number
the timeline has to be reconciled with — and then one more recovery of the same
directory started with ``-X importtime`` and ``--event-log``, printed as a
timeline: the bare interpreter's start-up, the import milliseconds by family
(NumPy, ``repro.*`` with its module count, everything else), and — in
milliseconds since the spawn — the daemon's own ``wal_recovery``, floor
``wal_snapshot``, each shard's ``worker_spawn`` and ``checkpoint_adoption``,
the banner and the first ``match``.

``-X importtime`` writes a line per module and slows the imports it times
(~10 %): read the instrumented run for *where*, the un-instrumented floor for
*how much*.  The import families count the daemon's own interpreter only;
any other interpreter that writes to the same stderr is counted on a line of
its own, as ``multiprocessing.resource_tracker`` starts.  That line must read
0: the shard workers use no shared memory and ship nothing — the first
``match`` answers from the daemon's own read view, built from a full export
of the recovered authority on the mutation thread — so nothing starts a
tracker (the shared-memory transport of older trees started one per worker,
on its first export, and printed 2 at ``--shards 2``).  For the "before"
timeline copy this file and ``profile_answer.py``
(it imports the re-exec helper from there) into a clone of the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger"
sys.path.insert(0, str(LEDGER))

import ledger_spec as spec  # noqa: E402
from ledger_spans import SpanRecorder  # noqa: E402
from ledger_stats import positionwise_floor  # noqa: E402
from profile_answer import reexec_in_child_environment  # noqa: E402

WARMUP_ROUNDS = 3
RECOVERIES = 10
INTERPRETER_STARTS = 5
WORKLOAD = "serve_mixed"


def interpreter_logs(importtime_log: str) -> List[List[str]]:
    """The ``-X importtime`` lines of each interpreter that wrote to the log,
    in the order they started.

    Every interpreter prints the column header (``self [us]``) before its
    first import, so a header starts the next one: the daemon's own lines
    come first, then those of any interpreter a child started — a
    ``multiprocessing.resource_tracker``, which no worker of this tree starts
    (workers are forked and import nothing themselves).
    """
    interpreters: List[List[str]] = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        if "self [us]" in line:
            interpreters.append([])
        elif interpreters:
            interpreters[-1].append(line)
    return interpreters


def _fields(line: str) -> Tuple[float, str, bool]:
    """``(self milliseconds, module, imported at top level)`` of one line."""
    own, _, module = line[len("import time:"):].split("|")
    return int(own) / 1e3, module.strip(), not module.startswith("  ")


def import_families(lines: Sequence[str]) -> Dict[str, Tuple[int, float]]:
    """``family -> (modules, self milliseconds)`` over one interpreter's lines.

    Each line is ``import time: <self us> | <cumulative us> | <module>``; self
    times partition the import wall-clock, so a family's sum is what its
    modules cost.
    """
    families: Dict[str, List[float]] = {"numpy": [], "repro": [], "other": []}
    for line in lines:
        own, module, _ = _fields(line)
        root = module.split(".")[0]
        families[root if root in families else "other"].append(own)
    return {name: (len(costs), sum(costs)) for name, costs in families.items()}


def tracker_starts(interpreters: Sequence[Sequence[str]]) -> Tuple[int, int, float]:
    """``(tracker starts, modules, self milliseconds)`` of the interpreters
    after the daemon's, counting a start per top-level
    ``multiprocessing.resource_tracker`` import (trackers that start together
    interleave their lines, so the lines are pooled)."""
    later = [_fields(line) for lines in interpreters[1:] for line in lines]
    starts = sum(top and module == "multiprocessing.resource_tracker" for _, module, top in later)
    return starts, len(later), sum(own for own, _, _ in later)


def interpreter_start_ms() -> float:
    """The floor of ``python -c pass`` under this environment."""
    samples = []
    for _ in range(INTERPRETER_STARTS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        samples.append(time.perf_counter() - started)
    return min(samples) * 1e3


def instrumented_recovery(saved: Path, workdir: Path, shards: int) -> None:
    """One ``repro serve --recover`` with an import log and an event log."""
    from repro.obs.events import read_events
    from repro.serve import ServeClient

    copy = workdir / "timeline-wal"
    events_dir = workdir / "timeline-events"
    import_log = workdir / "importtime.log"
    shutil.copytree(saved, copy)
    with import_log.open("wb") as stderr:
        spawned_clock, spawned = time.time(), time.perf_counter()
        process = subprocess.Popen(
            [
                sys.executable, "-X", "importtime", "-m", "repro", "serve",
                "--wal", str(copy), "--shards", str(shards), "--recover",
                "--event-log", str(events_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        try:
            banner = process.stdout.readline()
            if not banner:
                raise RuntimeError(f"the daemon exited before serving; see {import_log}")
            serving = time.perf_counter()
            info = json.loads(banner)
            with ServeClient(info["host"], info["port"], timeout=120.0) as client:
                client.match()
            answered = time.perf_counter()
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
            process.stdout.close()

    interpreters = interpreter_logs(import_log.read_text(errors="replace"))
    families = import_families(interpreters[0] if interpreters else [])
    print(f"{'':>10} {'ms':>9}  before the program runs")
    print(f"{'':>10} {interpreter_start_ms():9.1f}  interpreter start (python -c pass, min of {INTERPRETER_STARTS})")
    for name, label in (("other", "stdlib and the rest"), ("numpy", "NumPy"), ("repro", "repro.*")):
        modules, cost = families[name]
        print(f"{'':>10} {cost:9.1f}  import {label} ({modules} modules)")
    starts, modules, cost = tracker_starts(interpreters)
    print(
        f"{'':>10} {cost:9.1f}  import in {starts} resource-tracker interpreters "
        f"({modules} modules, not counted above; 0 unless something uses "
        f"shared memory)"
    )
    print(f"{'at ms':>10} {'ms':>9}  since the spawn")

    def row(at: float, text: str, took: Optional[float] = None) -> None:
        print(f"{at:10.1f} {'' if took is None else format(took, '.1f'):>9}  {text}")

    spawn_of: Dict[str, float] = {}
    for event in read_events(events_dir):
        at = (float(event["ts"]) - spawned_clock) * 1e3
        kind, role = event["type"], event.get("role", "")
        if kind == "wal_recovery":
            row(at, f"wal_recovery ({event['replayed_records']} records replayed)")
        elif kind == "wal_snapshot":
            row(at, f"wal_snapshot {event['sequence']} ({event['bytes']} bytes)")
        elif kind == "worker_spawn":
            spawn_of[role] = at
            row(at, f"worker_spawn {role}")
        elif kind == "checkpoint_adoption":
            row(at, f"checkpoint_adoption {role} (snapshot {event['sequence']})", at - spawn_of.get(role, at))
        elif kind == "daemon_serving":
            row(at, "daemon_serving (the banner is printed)")
        elif kind == "request" and event.get("op") == "match":
            row(at, "first match answered (server side)", event.get("duration_ms"))
            break
    row((serving - spawned) * 1e3, "banner read by the client = serve.start_ms")
    row((answered - spawned) * 1e3, "first match received = recover_ms", (answered - serving) * 1e3)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    arguments = parser.parse_args(argv)
    reexec_in_child_environment(__file__)

    from ledger_workloads import SERVE_SHARDS, make_workload

    workdir = LEDGER / "work" / f"start-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = make_workload(
        spec.WORKLOAD_BY_NAME[WORKLOAD], arguments.seed, workdir, SpanRecorder()
    )
    try:
        workload.setup()
        for _ in range(WARMUP_ROUNDS):
            workload.run_round()
        workload.prepare_recovery()
        samples: List[List[float]] = []
        for _ in range(RECOVERIES):
            stages, same = workload.recover_once()
            if not same:
                raise RuntimeError("a recovery answered differently from the boundary answer")
            samples.append(stages)
        totals = [sum(row) * 1e3 for row in samples]
        floors = [seconds * 1e3 for seconds in positionwise_floor(samples)]
        print(
            f"{WORKLOAD} seed {arguments.seed}: recover_ms over {RECOVERIES} un-instrumented "
            f"recoveries (start + first answer) min {min(totals):.1f}  "
            f"median {statistics.median(totals):.1f}  ledger floor {sum(floors):.1f} = "
            + " + ".join(f"{floor:.1f}" for floor in floors)
        )
        instrumented_recovery(workload.saved, workdir, SERVE_SHARDS)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
