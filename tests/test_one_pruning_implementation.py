"""One implementation per pruning algorithm.

A pruning algorithm only needs one score per pair: a classifier's
probability (Generalized Supervised Meta-blocking, ``prune``) or a weighting
scheme's value (classic, unsupervised Meta-blocking, ``retain``).  Each of
WEP, WNP, RWNP, BLAST, CEP, CNP and RCNP is therefore written once, as the
criterion of its :class:`~repro.core.pruning.SupervisedPruningAlgorithm`
subclass; ``retain`` applies it to every pair it is handed and ``prune`` to
the valid ones.

Beside them stood ``repro.metablocking``: a ``BlockingGraph`` holding the
pairs and one scheme's weights, ``build_blocking_graph``, and seven
``Unsupervised*`` classes whose bodies repeated the same kernel calls on the
graph's weights.  An AST walk over ``src/repro``, the shape of the other
deletion guards, keeps them gone, and keeps ``retain`` defined only where
the criteria live.
"""

import ast
import importlib

import pytest

from repro.core.pruning import SupervisedPruningAlgorithm
from test_import_layering import ROOT, _exported_names, _parse

#: the second implementation and the graph it pruned
GONE = {"BlockingGraph", "build_blocking_graph"}
GONE_PREFIX = "Unsupervised"
GONE_MODULE = "repro.metablocking"
#: the criterion's entry points: defined on pruning algorithms only
CRITERIA = {"retain", "_retain"}


def _gone(name: str) -> bool:
    return name in GONE or name.startswith(GONE_PREFIX)


def _offenders(tree: ast.Module, module: str):
    """``(line, what)`` for every definition of a removed name, and every
    ``retain`` / ``_retain`` not defined directly on a pruning algorithm."""
    methods = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name in CRITERIA:
                    methods.add(member)
                    cls = getattr(importlib.import_module(module), node.name, None)
                    if not (isinstance(cls, type) and issubclass(cls, SupervisedPruningAlgorithm)):
                        yield member.lineno, f"{node.name}.{member.name}"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _gone(node.name):
                yield node.lineno, node.name
            elif node.name in CRITERIA and node not in methods:
                yield node.lineno, node.name


def test_the_guard_sees_code():
    code = '''
class UnsupervisedWNP:
    def retain(self, weights, candidates): ...
class SupervisedPruningAlgorithm:
    def _retain(self, weights, candidates, blocks): ...
def build_blocking_graph(blocks): ...
def retain(weights): ...
'''
    # the module exists, and neither class in it is a pruning algorithm
    assert sorted(_offenders(ast.parse(code), "repro.core.pruning.kernels")) == [
        (2, "UnsupervisedWNP"),
        (3, "UnsupervisedWNP.retain"),
        (5, "SupervisedPruningAlgorithm._retain"),
        (6, "build_blocking_graph"),
        (7, "retain"),
    ]


def test_each_criterion_is_defined_once_on_the_pruning_algorithms():
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT)
        parts = ("repro",) + relative.with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        offenders += [f"{relative}:{line}: {name}" for line, name in _offenders(_parse(path), module)]
    assert not offenders, offenders


def test_the_criteria_live_in_the_pruning_package():
    defined = sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if any(
            isinstance(node, ast.FunctionDef) and node.name in CRITERIA
            for node in ast.walk(_parse(path))
        )
    )
    assert defined == [
        "core/pruning/base.py",
        "core/pruning/cardinality_based.py",
        "core/pruning/weight_based.py",
    ]


def test_the_unsupervised_package_does_not_import():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(GONE_MODULE)


def test_no_export_table_names_a_removed_name():
    offenders = {}
    for path in sorted(ROOT.rglob("__init__.py")):
        table = _exported_names(path, _parse(path))
        named = sorted(
            name for name, module in table.items() if _gone(name) or module.startswith(GONE_MODULE)
        )
        if named:
            offenders[str(path.relative_to(ROOT))] = named
    assert not offenders, offenders
