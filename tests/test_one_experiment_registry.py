"""One registry of the paper's experiments: each figure / table is named once.

:data:`repro.experiments.EXPERIMENTS` maps each experiment id to its run, its
report and the paper's values.  ``repro list`` / ``repro run``,
``benchmarks/bench_paper.py`` and the scalability example read it; before it,
each experiment was spelled out by a CLI adapter, a bench file, a
``run_figureN`` / ``run_tableN`` wrapper and a ``paper_*_reference()``
function, and they disagreed.  These checks keep it that way:

* ``repro run`` accepts exactly the registry's ids, and the paper bench has
  findings for exactly those ids;
* no module under ``src/repro`` defines or exports a wrapper, a reference
  function, a per-table copy of an algorithm's configuration or a
  per-experiment CLI adapter the registry replaced (an AST walk);
* ``import repro.cli``, and parsing a ``serve`` command line, load no
  ``repro.experiments`` module: only ``list`` / ``run`` read the registry.
"""

import ast
import json
import os
import re
import subprocess
import sys

from repro.cli import build_parser
from repro.experiments import EXPERIMENTS
from test_import_layering import ROOT, _parse

BENCH = ROOT.parent.parent / "benchmarks" / "bench_paper.py"

#: the per-figure wrappers, the per-table copies of an algorithm's configuration
#: and result type, and the CLI's per-experiment adapters the registry replaced
GONE = {
    "run_figure5", "run_figure6", "run_figure7", "run_figure8", "run_figure9",
    "run_figure11", "run_figure13", "run_figure14",
    "run_table3", "run_table4", "run_table5", "run_table7",
    "blast_pipeline", "rcnp_pipeline", "bcl_pipeline", "cnp_pipeline",
    "table5_pipelines", "table7_pipelines", "AlgorithmComparisonResult", "format_figure8",
    "_config_from_args", "_run_table2", "_run_fig5", "_run_fig6", "_run_tables34",
    "_run_fig8", "_run_fig10", "_run_training_size", "_run_fig12", "_run_table5",
    "_run_table7", "_run_fig1516", "_run_scalability",
}
REFERENCE_FUNCTION = re.compile(r"paper_\w+_reference")


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
        for node in _parse(BENCH).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "FINDINGS"
    ]
    assert len(assignments) == 1
    keys = [key.value for key in assignments[0].value.keys]
    assert sorted(keys) == sorted(EXPERIMENTS)


def _offenders(tree: ast.Module, path: str):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in GONE or REFERENCE_FUNCTION.fullmatch(node.name):
                yield f"{path}:{node.lineno}: {node.name}"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in GONE or REFERENCE_FUNCTION.fullmatch(node.value):
                yield f"{path}:{node.lineno}: {node.value!r}"  # an export-table entry


def test_the_guard_sees_code():
    code = '''
def run_figure5(config): ...
def run_figure10(config): ...
def run_table6(config): ...
class Registry:
    def paper_table2_reference(self): ...
_EXPORTS = {"run_table7": "final_comparison"}
'''
    assert list(_offenders(ast.parse(code), "x")) == [
        "x:2: run_figure5",
        "x:6: paper_table2_reference",
        "x:7: 'run_table7'",
    ]


def test_no_module_defines_or_exports_what_the_registry_replaced():
    offenders = [
        offender
        for path in sorted(ROOT.rglob("*.py"))
        for offender in _offenders(_parse(path), str(path.relative_to(ROOT)))
    ]
    assert not offenders, offenders


def test_the_cli_holds_no_experiment_table_of_its_own():
    tree = _parse(ROOT / "cli.py")
    names = {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert "EXPERIMENTS" not in names


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
