"""The perf ledger: one command per workload, plus ``all`` and ``compare``.

    python3 benchmarks/ledger/run.py --workload stream_churn --seed 1
    python3 benchmarks/ledger/run.py --workload stream_churn --trace 1
    python3 benchmarks/ledger/run.py all --quick
    python3 benchmarks/ledger/run.py compare --a results/A-*.json --b results/B-*.json

A run conditions host memory in a throw-away process, then measures the
workload in fresh child processes (``ledger_child.py``), checks their
answers, prints every metric by name with its unit, writes a results file
under ``benchmarks/ledger/results/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is non-zero when any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import ledger_spec as spec
from ledger_stats import percentile, positionwise_floor, quartiles, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
CHILD = HERE / "ledger_child.py"
#: one invocation must end within the driver's 180 s; a child still running
#: when this much has passed is killed with its process group
DEADLINE_SECONDS = 170.0

def child_environment() -> Dict[str, str]:
    environment = dict(os.environ)
    environment.update(spec.CHILD_ENV)
    inherited = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    # the daemon falls back to this variable for its event log; the ledger
    # decides itself when the daemon journals
    environment.pop("REPRO_EVENT_LOG", None)
    return environment


def run_child(
    arguments: Sequence[str], environment: Dict[str, str], deadline: float
) -> int:
    """Run one child in a session of its own; never leave a process behind."""
    process = subprocess.Popen(
        [sys.executable, str(CHILD), *arguments],
        env=environment,
        cwd=str(HERE),
        start_new_session=True,
    )
    try:
        return process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return -signal.SIGKILL
    finally:
        # the child's daemon and shard workers share its process group
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()


def fingerprint(children: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "machine": platform.machine(),
        **(children[0].get("versions", {}) if children else {}),
    }


def aggregate(
    children: Sequence[Dict[str, Any]], condition_s: float
) -> Dict[str, Dict[str, float]]:
    """Fold the children's measurements into the named metrics."""
    rounds = [entry for child in children for entry in child["rounds"]]
    ingest_rounds = [entry["ingest_ops_ms"] for entry in rounds]
    answer_rounds = [entry["answer_ops_ms"] for entry in rounds]
    ingest_ops = [value for row in ingest_rounds for value in row]
    answer_ops = [value for row in answer_rounds for value in row]
    recoveries = [row for child in children for row in child["recover_stages_ms"]]
    end_to_end = {
        "setup_s": statistics.median(child["setup_s"] for child in children),
        "ingest_ms": statistics.fmean(positionwise_floor(ingest_rounds)),
        "answer_ms": statistics.fmean(positionwise_floor(answer_rounds)),
        "recover_ms": sum(positionwise_floor(recoveries)),
        "peak_rss_mb": statistics.median(child["peak_rss_mb"] for child in children),
    }
    names = {name for child in children for name in child["layer"]}
    layer = {
        name: statistics.median(
            child["layer"][name] for child in children if name in child["layer"]
        )
        for name in names
    }
    drift = max(
        child["calibration"]["end"][kernel] / child["calibration"]["start"][kernel]
        for child in children
        for kernel in ("py_ms", "np_ms")
    )
    layer.update(
        {
            "harness.calib_py_ms": statistics.median(
                child["calibration"]["start"]["py_ms"] for child in children
            ),
            "harness.calib_np_ms": statistics.median(
                child["calibration"]["start"]["np_ms"] for child in children
            ),
            "harness.calib_drift_pct": (drift - 1.0) * 100.0,
            "harness.condition_s": condition_s,
            "harness.sys_s": sum(child["sys_s"] for child in children),
            "harness.minor_faults": float(sum(child["minor_faults"] for child in children)),
            "harness.rounds": float(len(rounds)),
            "ingest_ms.median": statistics.median(ingest_ops),
            "ingest_ms.p99": percentile(ingest_ops, 99.0),
            "answer_ms.median": statistics.median(answer_ops),
            "answer_ms.max": max(answer_ops),
        }
    )
    per_layer = {name: float(layer.get(name, 0.0)) for name in spec.PER_LAYER_NAMES}
    return {"end_to_end": end_to_end, "per_layer": per_layer}


def final_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, float]],
    traced: bool,
) -> str:
    """The last line of standard output: the driver's JSON object."""
    group = "per_layer" if traced else "end_to_end"
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": spec.UNITS[name]}
                for name, value in metrics[group].items()
            },
        }
    )


def run_workload(options: argparse.Namespace) -> int:
    """Measure one workload; print its metrics and the final JSON line."""
    if not (SRC / "repro").is_dir():
        print(
            f"the perf ledger measures the package under {SRC}; it is not there",
            file=sys.stderr,
        )
        return 2
    workload = spec.WORKLOAD_BY_NAME[options.workload]
    traced = bool(options.trace)
    children_count = 1 if (traced or options.quick) else spec.CHILDREN
    if options.quick:
        warmups, rounds = 1, 3
    else:
        warmups = spec.WARMUP_ROUNDS
        rounds = max(2, round(workload.rounds * options.seconds / spec.RUN_SECONDS))
    environment = child_environment()
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    children: List[Dict[str, Any]] = []
    deadline = time.monotonic() + DEADLINE_SECONDS
    try:
        started = time.perf_counter()
        megabytes = 64 if options.quick else spec.CONDITION_MB
        if run_child(["--condition", str(megabytes)], environment, deadline) != 0:
            print("the conditioning process failed", file=sys.stderr)
            return 2
        condition_s = time.perf_counter() - started
        for position in range(children_count):
            child_dir = workdir / f"child-{position}"
            child_dir.mkdir()
            child_spec = {
                "workload": workload.name,
                "seed": options.seed,
                "quick": options.quick,
                "trace": int(traced),
                "warmups": warmups,
                "rounds": rounds,
                "recover_reps": workload.recover_reps,
                # the reference check needs one process; every child's
                # digest must then equal the verified one
                "verify": position == 0,
                "break_round": warmups + 1 if options.self_test and position == 0 else None,
                "workdir": str(child_dir),
                "spawn_monotonic": time.monotonic(),
            }
            spec_path = child_dir / "spec.json"
            result_path = child_dir / "result.json"
            spec_path.write_text(json.dumps(child_spec), encoding="utf-8")
            code = run_child([str(spec_path), str(result_path)], environment, deadline)
            if code != 0 or not result_path.exists():
                print(f"child {position} of {workload.name} failed (exit {code})", file=sys.stderr)
                log = child_dir / "daemon.log"
                if log.exists():
                    print(log.read_text(errors="replace")[-2000:], file=sys.stderr)
                return 2
            children.append(json.loads(result_path.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another run is using it
        except OSError:
            pass

    metrics = aggregate(children, condition_s)
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    same_digest = len({child["digest"] for child in children}) == 1
    verified = all(child["verified"] for child in children)
    if not (same_digest and verified):
        failed = attempted
    correct = failed == 0
    contaminated = (
        metrics["per_layer"]["harness.calib_drift_pct"]
        > (spec.CONTAMINATION_FACTOR - 1.0) * 100.0
    )

    print(f"# {workload.name}  seed={options.seed}  trace={int(traced)}"
          f"  children={children_count}  rounds={rounds}/child  "
          f"estimator={spec.ESTIMATOR}")
    print(f"# check: {children[0]['verify_detail']}")
    for group in ("end_to_end", "per_layer"):
        for name, value in metrics[group].items():
            # the untraced pass measures no layer times; skip their zeros
            if traced or value or group == "end_to_end":
                print(f"{name:<34} {value:>16.6f} {spec.UNITS[name]}")
    if contaminated:
        print("# CONTAMINATED: the calibration kernels slowed by more than "
              f"{(spec.CONTAMINATION_FACTOR - 1) * 100:.0f}% during the run")
    print(f"# correct={correct} attempted={attempted} failed={failed}")

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results_path = RESULTS / (
        f"{options.label}-{workload.name}-seed{options.seed}-trace{int(traced)}"
        f"-{stamp}-{os.getpid()}.json"
    )
    results_path.write_text(
        json.dumps(
            {
                "schema": 1,
                "label": options.label,
                "workload": workload.name,
                "why": workload.why,
                "seed": options.seed,
                "seconds": options.seconds,
                "trace": int(traced),
                "quick": options.quick,
                "estimator": spec.ESTIMATOR,
                "load_shape": spec.LOAD_SHAPE,
                "wal_sync": spec.WAL_SYNC,
                "child_env": spec.CHILD_ENV,
                "fingerprint": fingerprint(children),
                "contaminated": contaminated,
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "end_to_end": metrics["end_to_end"],
                "per_layer": metrics["per_layer"],
                "children": children,
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(f"# results: {results_path.relative_to(ROOT)}")

    print(final_line(correct, attempted, failed, metrics, traced))
    return 0 if correct else 1


def run_all(options: argparse.Namespace) -> int:
    worst = 0
    for workload in spec.WORKLOADS:
        options.workload = workload.name
        worst = max(worst, run_workload(options))
    return worst


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def load_results(paths: Sequence[str]) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per results file]}}`` of end-to-end metrics."""
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text(encoding="utf-8"))
        if result.get("trace"):
            continue
        metrics = grouped.setdefault(result["workload"], {})
        for name, value in result["end_to_end"].items():
            metrics.setdefault(name, []).append(float(value))
    return grouped


def _cell(q: Dict[str, float], n: int) -> str:
    return f"{q['median']:.3f} [{q['q1']:.3f}, {q['q3']:.3f}] n={n}"


def compare(options: argparse.Namespace) -> int:
    """Per workload x end-to-end metric: medians, quartiles, bound, verdict."""
    first, second = load_results(options.a), load_results(options.b)
    header = (
        f"{'workload':<18} {'metric':<12} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'B vs A':>8} {'bound':>6}  verdict"
    )
    print(header)
    regressed = False
    for workload in spec.WORKLOADS:
        if workload.name not in first or workload.name not in second:
            continue
        for metric in spec.END_TO_END:
            a = first[workload.name].get(metric.name)
            b = second[workload.name].get(metric.name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            outcome = verdict(a, b, metric.bound, metric.better)
            regressed = regressed or outcome == "regressed"
            change = (qb["median"] - qa["median"]) / qa["median"] * 100.0
            print(
                f"{workload.name:<18} {metric.name:<12} {_cell(qa, len(a)):>32} "
                f"{_cell(qb, len(b)):>32} {change:>+7.1f}% {metric.bound * 100:>5.0f}%  {outcome}"
            )
    return 1 if regressed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", nargs="?", choices=("run", "all", "compare"), default="run")
    parser.add_argument("--workload", choices=sorted(spec.WORKLOAD_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                        help="timed seconds to aim for; scales the round count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: tiny scales, 3 rounds, all checks on")
    parser.add_argument("--self-test", action="store_true", dest="self_test",
                        help="break one answer on purpose; the run must fail")
    parser.add_argument("--label", default="run",
                        help="prefix of the results file (e.g. A / B for compare)")
    parser.add_argument("--a", nargs="+", default=[], help="compare: parent results files")
    parser.add_argument("--b", nargs="+", default=[], help="compare: change results files")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.mode == "compare":
        if not options.a or not options.b:
            parser.error("compare needs --a FILES and --b FILES")
        return compare(options)
    if options.mode == "all":
        return run_all(options)
    if options.workload is None:
        parser.error("--workload is required")
    return run_workload(options)


if __name__ == "__main__":
    sys.exit(main())
