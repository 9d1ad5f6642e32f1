"""One registry of the paper's experiments: each figure / table is named once.

:data:`repro.experiments.EXPERIMENTS` maps each experiment id to its run, its
report and the paper's values.  ``repro list`` / ``repro run``,
``benchmarks/bench_paper.py`` and the scalability example read it; before it,
each experiment was spelled out by a CLI adapter, a bench file, a
``run_figureN`` / ``run_tableN`` wrapper and a ``paper_*_reference()``
function, and they disagreed (those stay gone by the rows of
``tests/test_guards.py``).  These checks keep it that way:

* ``repro run`` accepts exactly the registry's ids, and the paper bench has
  findings for exactly those ids;
* ``import repro.cli``, and parsing a ``serve`` command line, load no
  ``repro.experiments`` module: only ``list`` / ``run`` read the registry.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser
from repro.experiments import EXPERIMENTS
from source_tree import REPO, ROOT, parse

pytestmark = pytest.mark.equivalence

BENCH = REPO / "benchmarks" / "bench_paper.py"


def _run_choices():
    subcommands = next(
        action for action in build_parser()._actions if action.dest == "command"
    )
    run = subcommands.choices["run"]
    return next(action for action in run._actions if action.dest == "experiment").choices


def test_repro_run_accepts_exactly_the_registry_ids():
    assert sorted(_run_choices()) == sorted(EXPERIMENTS)
    assert "bogus" not in _run_choices()


def test_the_paper_bench_has_findings_for_exactly_the_registry_ids():
    assignments = [
        node
        for node in parse(BENCH).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FINDINGS"
    ]
    assert len(assignments) == 1
    keys = [key.value for key in assignments[0].value.keys]
    assert sorted(keys) == sorted(EXPERIMENTS)


def test_importing_the_cli_and_parsing_serve_load_no_experiment_module():
    script = (
        "import json, sys\n"
        "import repro.cli\n"
        "imported = sorted(sys.modules)\n"
        "repro.cli.build_parser().parse_args(['serve', '--wal', 'unused'])\n"
        "print(json.dumps([imported, sorted(sys.modules)]))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(ROOT.parent)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    for loaded in json.loads(completed.stdout):
        assert "repro.cli" in loaded
        assert not [name for name in loaded if name.startswith("repro.experiments")]
