"""Look before claiming: profile one phase of one ledger workload.

    python3 benchmarks/profile_answer.py --workload batch_dirty_blast
                                         [--phase answer|ingest|recover|setup] [--seed 1]

The ledger's spans stop at layer boundaries; this is the instrument below
them.  It sits beside the ledger and only imports it (``ledger_spec``,
``ledger_workloads``, ``ledger_spans``, ``run.child_environment`` — nothing
under ``benchmarks/ledger/`` knows about it): the same workload object, the
same seeded inputs, the same child environment (``ledger_spec.CHILD_ENV``,
applied by re-executing this file once), so what it reports is the program the
ledger measures.

One run = set-up, ``WARMUP_ROUNDS`` untimed rounds, ``PLAIN_ROUNDS``
un-profiled rounds whose min / median / position-wise floor (the ledger's
estimator) are printed *first* — the number the profile has to be reconciled
with — then ``cProfile`` over ``PROFILED_ROUNDS`` rounds, switched on only
inside the chosen phase's spans, and the top ``TOP`` functions by cumulative
time, per round and per call, in milliseconds.  ``cProfile`` charges every
Python call but not the work inside native code, so it inflates layers made
of many small calls: find candidates here, then measure them with the
ledger (``make bench-ab``).

``--phase recover`` follows the ledger's recovery phase instead of its
rounds: after the warm-up rounds, ``prepare_recovery()`` (run once — it closes
what it checkpoints — under its own profiler: the snapshot write and the tail
rounds), then ``RECOVER_PLAIN`` un-profiled ``recover_once()`` whose per-stage
min / median / ledger floor (the sum of the stages' floors, as ``recover_ms``)
are printed first, then ``RECOVER_PROFILED`` profiled ones, and the two tables.

``--phase setup`` follows the ledger's set-up instead (the span ``setup_s``
has no per-layer split for): one un-profiled ``Workload.setup()`` — cold, so
its first imports are in it, as in the ledger's child — then ``cProfile`` over
the ``setup()`` of a second, fresh workload in its own directory.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger"
sys.path.insert(0, str(LEDGER))

import ledger_spec as spec  # noqa: E402
from ledger_spans import SpanRecorder  # noqa: E402
from ledger_stats import positionwise_floor  # noqa: E402
from run import child_environment  # noqa: E402

WARMUP_ROUNDS = 3
PLAIN_ROUNDS = 150
PROFILED_ROUNDS = 30
RECOVER_PLAIN = 30
RECOVER_PROFILED = 10
TOP = 40
PHASES = ("answer", "ingest", "recover", "setup")


class PhaseProfiler(SpanRecorder):
    """A disabled recorder whose ``span(phase)`` switches a profiler on.

    The workloads open one root span around every timed operation whether or
    not tracing is on; left disabled, the recorder wraps no layer, so the
    rounds run the program exactly as the ledger's untraced pass does.
    """

    def __init__(self, phase: str) -> None:
        super().__init__()
        self.phase = phase
        self.profiler: Optional[cProfile.Profile] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self.profiler is None or name != self.phase:
            yield
            return
        self.profiler.enable()
        try:
            yield
        finally:
            self.profiler.disable()


def reexec_in_child_environment(script: str = __file__) -> None:
    """Re-execute ``script`` under the ledger's child environment (glibc reads its knobs at start-up)."""
    if all(os.environ.get(name) == value for name, value in spec.CHILD_ENV.items()):
        return
    script = str(Path(script).resolve())
    os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], child_environment())


def print_profile(profiler: cProfile.Profile, rounds: int, top: int = TOP) -> None:
    """Top ``top`` functions by cumulative time, in ms per round and per call."""
    rows = sorted(
        pstats.Stats(profiler).stats.items(), key=lambda item: item[1][3], reverse=True
    )[:top]
    print(f"{'calls/rd':>9} {'self ms/rd':>11} {'cum ms/rd':>10} {'cum ms/call':>12}  function")
    for (filename, line, function), (_, calls, own, cumulative, _) in rows:
        where = function if filename == "~" else f"{Path(filename).name}:{line}({function})"
        print(
            f"{calls / rounds:9.1f} {own * 1e3 / rounds:11.3f} "
            f"{cumulative * 1e3 / rounds:10.3f} {cumulative * 1e3 / calls:12.4f}  {where}"
        )


def profile_recovery(workload, label: str) -> None:
    """The ledger's recovery phase: un-profiled stage timings first, then profiles."""
    set_up = cProfile.Profile(time.perf_counter)
    set_up.runcall(workload.prepare_recovery)

    def recover() -> List[float]:
        stages, same = workload.recover_once()
        if not same:
            raise RuntimeError("a recovery answered differently from the boundary answer")
        return stages

    samples = [recover() for _ in range(RECOVER_PLAIN)]
    totals = [sum(row) * 1e3 for row in samples]
    floors = [seconds * 1e3 for seconds in positionwise_floor(samples)]
    print(
        f"{label}: recover_ms over {RECOVER_PLAIN} un-profiled recoveries "
        f"({len(floors)} stages) min {min(totals):.3f}  median {statistics.median(totals):.3f}  "
        f"ledger floor {sum(floors):.3f} = " + " + ".join(f"{floor:.3f}" for floor in floors)
    )
    profiler = cProfile.Profile(time.perf_counter)
    for _ in range(RECOVER_PROFILED):
        profiler.runcall(recover)
    print(f"cProfile of recover_once(), {RECOVER_PROFILED} recoveries:")
    print_profile(profiler, RECOVER_PROFILED)
    print("cProfile of prepare_recovery() (one call: checkpoint, tail rounds, close):")
    print_profile(set_up, 1, top=15)


def profile_setup(workload, fresh, label: str) -> None:
    """``Workload.setup()``: one un-profiled call, then a profile of a fresh workload's."""
    start = time.perf_counter()
    workload.setup()
    seconds = time.perf_counter() - start
    print(f"{label}: setup() un-profiled {seconds * 1e3:.1f} ms (cold imports)")
    second = fresh()
    try:
        profiler = cProfile.Profile(time.perf_counter)
        start = time.perf_counter()
        profiler.runcall(second.setup)
        print(
            f"cProfile of setup() on a fresh workload (warm imports): "
            f"{(time.perf_counter() - start) * 1e3:.1f} ms profiled"
        )
        print_profile(profiler, 1)
    finally:
        second.close()


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--phase", default="answer", choices=PHASES)
    parser.add_argument("--seed", type=int, default=1)
    arguments = parser.parse_args(argv)
    reexec_in_child_environment()

    from ledger_workloads import make_workload

    tracer = PhaseProfiler(arguments.phase)
    workdir = LEDGER / "work" / f"profile-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = make_workload(
        spec.WORKLOAD_BY_NAME[arguments.workload], arguments.seed, workdir, tracer
    )
    try:
        if not workload.in_process:
            parser.error(
                f"{arguments.workload} does its work in the daemon's processes; "
                "profile stream_churn (the same session code, in process) instead, "
                "or read its request spans with benchmarks/serve_budget.py"
            )
        if arguments.phase == "setup":
            profile_setup(
                workload,
                lambda: make_workload(
                    spec.WORKLOAD_BY_NAME[arguments.workload], arguments.seed,
                    workdir / "fresh", tracer,
                ),
                f"{arguments.workload} seed {arguments.seed}",
            )
            return 0
        workload.setup()
        expected = workload.run_round().digest
        for _ in range(WARMUP_ROUNDS - 1):
            workload.run_round()
        if arguments.phase == "recover":
            profile_recovery(workload, f"{arguments.workload} seed {arguments.seed}")
            return 0

        samples: List[List[float]] = []
        for _ in range(PLAIN_ROUNDS):
            sample = workload.run_round()
            if sample.digest != expected:
                raise RuntimeError("a round answered differently from the first")
            samples.append(getattr(sample, f"{arguments.phase}_seconds"))
        per_round = [statistics.fmean(row) * 1e3 for row in samples]
        floor = statistics.fmean(positionwise_floor(samples)) * 1e3
        print(
            f"{arguments.workload} seed {arguments.seed}: {arguments.phase}_ms over "
            f"{PLAIN_ROUNDS} un-profiled rounds ({len(samples[0])} op/round) "
            f"min {min(per_round):.3f}  median {statistics.median(per_round):.3f}  "
            f"ledger floor {floor:.3f}"
        )

        tracer.profiler = cProfile.Profile(time.perf_counter)
        for _ in range(PROFILED_ROUNDS):
            workload.run_round()
        profiler, tracer.profiler = tracer.profiler, None
        print(f"cProfile of the {arguments.phase} phase, {PROFILED_ROUNDS} rounds:")
        print_profile(profiler, PROFILED_ROUNDS)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
