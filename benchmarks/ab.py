"""Same-box A/B of the perf ledger: a parent commit against the index.

    python3 benchmarks/ab.py --ref <sha> [--workloads batch_clean_rcnp ...]
                             [--seeds 1 2 ... 10] [--pr 16] [--trace-seed 2]

The protocol PRs 13-15 each ran by hand, scripted beside the ledger (nothing
under ``benchmarks/ledger/`` knows about it):

* parent = ``git clone`` of this repository at ``--ref``; change =
  ``git checkout-index`` export of the *staged* tree (``git add`` first) —
  two fresh directories, so neither run sees build leftovers of the other;
* every seed runs both trees back to back, the order alternated per seed so
  drift of the machine hits both sides alike; each tree runs **its own**
  unmodified ``benchmarks/ledger/run.py`` (``--label A`` / ``--label B``);
* the change tree's ``run.py compare`` prints the verdict table, and a
  schema-versioned ``BENCH_<pr>.json`` is written at the repository root:
  per workload x end-to-end metric the medians, quartiles, how many of the
  seed pairs the change won, and how many runs the harness flagged as
  contaminated; optionally the traced per-layer split of one seed; plus
  ``make loc`` of both trees.

Cross-machine gating does not work (see the ledger README), so this is the
gate: one box, paired runs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = 1
LEDGER = Path("benchmarks") / "ledger"


def git(*arguments: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *arguments], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_trees(ref: str, workdir: Path) -> Dict[str, Path]:
    """``{"A": parent clone at ref, "B": export of the staged tree}``."""
    parent, change = workdir / "parent", workdir / "change"
    git("clone", "--quiet", "--no-hardlinks", str(ROOT), str(parent))
    git("checkout", "--quiet", "--detach", ref, cwd=parent)
    change.mkdir()
    git("checkout-index", "--all", f"--prefix={change}/")
    return {"A": parent, "B": change}


def src_lines(tree: Path) -> int:
    """``make loc`` of a freshly exported tree (everything under src/ is tracked)."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src").rglob("*") if path.is_file())


def run_ledger(tree: Path, label: str, workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """One ledger run in ``tree``; returns its results file, parsed."""
    before = set((tree / LEDGER / "results").glob("*.json"))
    process = subprocess.run(
        [
            sys.executable,
            str(LEDGER / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--trace", str(trace),
            "--label", label,
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    if process.returncode != 0:
        sys.stderr.write(process.stdout[-2000:] + process.stderr[-2000:])
        raise SystemExit(f"{label} {workload} seed {seed}: ledger exited {process.returncode}")
    (written,) = set((tree / LEDGER / "results").glob("*.json")) - before
    result = json.loads(written.read_text(encoding="utf-8"))
    result["path"] = str(written)
    return result


def quartiles(values: List[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        return {"q1": ordered[0], "median": ordered[0], "q3": ordered[0]}
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(
    runs: Dict[str, List[Dict[str, Any]]], better: Dict[str, str]
) -> Dict[str, Dict[str, Any]]:
    """Per end-to-end metric: quartiles of both sides, paired wins, change."""
    cells: Dict[str, Dict[str, Any]] = {}
    for metric, direction in better.items():
        a = [run["end_to_end"][metric] for run in runs["A"]]
        b = [run["end_to_end"][metric] for run in runs["B"]]
        sign = -1.0 if direction == "lower" else 1.0
        qa, qb = quartiles(a), quartiles(b)
        cells[metric] = {
            "parent": qa,
            "change": qb,
            "change_vs_parent_pct": (qb["median"] - qa["median"]) / qa["median"] * 100.0
            if qa["median"]
            else 0.0,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(a, b)),
            "pairs": len(a),
            "parent_values": a,
            "change_values": b,
        }
    return cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True, help="the parent commit")
    parser.add_argument("--workloads", nargs="*", default=[], help="default: all four")
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--pr", default="16", help="suffix of BENCH_<pr>.json")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also record the traced per-layer split of this seed")
    parser.add_argument("--workdir", default=None, help="where the two trees go (kept)")
    options = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = options.workloads or [entry["name"] for entry in benchmark["workloads"]]
    better = {entry["name"]: entry["better"] for entry in benchmark["end_to_end"]}
    keep = options.workdir is not None
    workdir = Path(options.workdir or tempfile.mkdtemp(prefix="bench-ab-"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        trees = export_trees(options.ref, workdir)
        report: Dict[str, Any] = {
            "schema": SCHEMA,
            "pr": options.pr,
            "ref": git("rev-parse", options.ref),
            "seeds": options.seeds,
            "protocol": "parent=git clone at ref, change=git checkout-index export; "
            "one pair per seed, order alternated; each tree runs its own ledger",
            "loc": {"parent": src_lines(trees["A"]), "change": src_lines(trees["B"])},
            "workloads": {},
        }
        files: Dict[str, List[str]] = {"A": [], "B": []}
        for workload in workloads:
            runs: Dict[str, List[Dict[str, Any]]] = {"A": [], "B": []}
            for position, seed in enumerate(options.seeds):
                for label in ("AB", "BA")[position % 2]:
                    runs[label].append(run_ledger(trees[label], label, workload, seed, trace=0))
                pair = {label: runs[label][-1]["end_to_end"]["answer_ms"] for label in "AB"}
                print(f"{workload} seed {seed}: answer_ms A={pair['A']:.2f} B={pair['B']:.2f}",
                      flush=True)
            entry: Dict[str, Any] = {
                "end_to_end": summarise(runs, better),
                "contaminated_runs": sum(run["contaminated"] for side in runs.values() for run in side),
                "failed_operations": {
                    label: sum(run["failed"] for run in runs[label]) for label in "AB"
                },
            }
            if options.trace_seed is not None:
                entry["per_layer"] = {
                    label: run_ledger(trees[label], label, workload, options.trace_seed, 1)["per_layer"]
                    for label in "AB"
                }
            report["workloads"][workload] = entry
            for label in "AB":
                files[label] += [run["path"] for run in runs[label]]
        compare = subprocess.run(
            [sys.executable, str(LEDGER / "run.py"), "compare", "--a", *files["A"], "--b", *files["B"]],
            cwd=trees["B"],
            capture_output=True,
            text=True,
        )
        print(compare.stdout)
        report["compare"] = {"exit_code": compare.returncode, "table": compare.stdout.splitlines()}
        target = ROOT / f"BENCH_{options.pr}.json"
        target.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {target.relative_to(ROOT)}")
        return compare.returncode
    finally:
        if not keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
