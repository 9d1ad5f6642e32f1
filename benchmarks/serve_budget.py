"""Where a served request spends its time: ``serve_mixed``'s budget table.

    python3 benchmarks/serve_budget.py [--seed 1]

``profile_answer.py`` refuses ``serve_mixed`` — its work happens in the
daemon's processes — so this is the instrument for it, beside the ledger and
importing it the same way (``ledger_spec``, ``ledger_workloads``,
``ledger_spans``, ``run.child_environment``; nothing under
``benchmarks/ledger/`` knows about it): the workload's own set-up and rounds
against a daemon started with ``--event-log``, then every ``request`` event's
span tree is walked and, per operation and span path, the number of samples
and the min / median / mean milliseconds are printed — the read path as the
daemon itself measured it (queue-wait, fan-out, each shard's catch-up and
export, view-apply, the four score-and-prune stages), ROADMAP item 5(b)'s
budget table in its smallest form.

The tracing that produces the spans is on in the ledger's untraced pass too
(``repro serve`` defaults); only the event log is extra.  Judge a change by
the medians: the first ``match`` ships every shard in full and is in ``n``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
LEDGER = HERE / "ledger"
sys.path.insert(0, str(LEDGER))

import ledger_spec as spec  # noqa: E402
from ledger_spans import SpanRecorder  # noqa: E402
from profile_answer import reexec_in_child_environment  # noqa: E402

ROUNDS = 40
WORKLOAD = "serve_mixed"


def span_paths(span: Dict[str, Any], prefix: str = "") -> Iterator[Tuple[str, float]]:
    """``(path, ms)`` of a span and everything under it, depth first."""
    path = f"{prefix}/{span['name']}" if prefix else str(span["name"])
    yield path, float(span.get("ms", 0.0))
    for child in span.get("children", ()):
        yield from span_paths(child, path)


def budget(events: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, List[float]]]:
    """op -> span path -> the milliseconds every ``request`` event recorded
    (paths in first-seen order, i.e. the order the request crossed them)."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for event in events:
        if event.get("type") != "request" or not event.get("spans"):
            continue
        rows = table.setdefault(str(event.get("op")), {})
        for path, ms in span_paths(event["spans"]):
            rows.setdefault(path, []).append(ms)
    return table


def print_budget(table: Dict[str, Dict[str, List[float]]]) -> None:
    print(f"{'n':>6} {'min ms':>9} {'median ms':>10} {'mean ms':>9}  span path")
    for op in sorted(table):
        for path, samples in table[op].items():
            depth = path.count("/")
            print(
                f"{len(samples):6d} {min(samples):9.3f} "
                f"{statistics.median(samples):10.3f} {statistics.fmean(samples):9.3f}  "
                f"{'  ' * depth}{path.rsplit('/', 1)[-1]}"
            )


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    arguments = parser.parse_args(argv)
    reexec_in_child_environment(__file__)

    from ledger_workloads import make_workload
    from repro.obs.events import read_events

    tracer = SpanRecorder()
    tracer.enabled = True  # the workload starts its daemon with --event-log
    workdir = LEDGER / "work" / f"budget-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = make_workload(spec.WORKLOAD_BY_NAME[WORKLOAD], arguments.seed, workdir, tracer)
    try:
        workload.setup()
        expected = workload.run_round().digest
        for _ in range(ROUNDS - 1):
            if workload.run_round().digest != expected:
                raise RuntimeError("a round answered differently from the first")
        workload.close()  # SIGTERM: the daemon drains and flushes its log
        events = list(read_events(workload.events))
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"{WORKLOAD} seed {arguments.seed}: set-up + {ROUNDS} rounds, "
        f"{sum(event.get('type') == 'request' for event in events)} requests"
    )
    print_budget(budget(events))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
