"""No test-only surface in ``src/``: what only the tests called is gone.

``src/`` holds the program that computes the retained set — blocking, the
weighting schemes, a probabilistic classifier and pruning — and its serving
and storage.  Beside it stood definitions nothing but the tests called.  The
four that serve as oracles live under ``tests/`` now: the bounded priority
queue and the writer's member-list block collection
(``tests/reference.py``: ``BoundedTopQueue``, ``reference_blocks``), the ROC
AUC quality bar of the classifiers (``tests/ml/test_classifiers.py``) and the
chaos suite's seeded kill-loop plan (``tests/faults/conftest.py``).  The rest
are deleted.  An AST walk over ``src/repro``, the shape of the other deletion
guards, keeps each one undefined, under its class where it was a method;
the two modules that held nothing else do not import, and no package's
export table names any of them.
"""

import ast
import importlib

import pytest

from test_import_layering import ROOT, _exported_names, _parse

#: ``Class.method`` or ``function`` — every definition that left ``src/``
GONE = {
    # moved to tests/
    "BoundedTopQueue",
    "MutableBlockIndex.snapshot_blocks",
    "roc_auc_score",
    "FaultPlan.kill_loop",
    # deleted
    "ConfusionCounts",
    "confusion_counts",
    "precision_score",
    "recall_score",
    "f1_score",
    "accuracy_score",
    "GeneralizedSupervisedMetaBlocking.run_on_collections",
    "MatchingSession.insert_many",
    "MutableBlockIndex.add_entities",
    "CandidateSet.from_packed_keys",
    "FaultPlan.describe",
    "load_all_benchmarks",
    "load_all_dirty_datasets",
    "run_figure7",
    "run_figure9",
    "run_figure14",
    "run_table4",
    "FeatureMatrix.column_index",
    "train_test_split_indices",
    "write_index_snapshot",
    "evaluate_blocks",
    "paper_vs_measured",
    "feature_width",
    "BlockCollection.average_blocks_per_entity",
    "EntityCollection.attribute_names",
    "GroundTruth.missed_by",
    "FeatureMatrix.select",
    "BlockStatistics.describe",
    "EntityCollection.by_id",
    "CandidateSet.as_tuples",
    "CandidatePair.as_tuple",
}

#: the modules that held nothing but test-only surface
GONE_MODULES = ("repro.utils.pqueue", "repro.ml.metrics")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defined(tree: ast.Module):
    """``(line, qualified name)`` of every module-level definition of
    ``tree`` and of every definition directly inside a module-level class."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFINITIONS):
                    yield member.lineno, f"{node.name}.{member.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id


def _offenders(tree: ast.Module):
    return [(line, name) for line, name in _defined(tree) if name in GONE]


def test_the_guard_sees_code():
    code = '''
class FaultPlan:
    def describe(self): ...
    def to_json(self): ...
class IndexStatistics:
    def describe(self): ...
def evaluate_blocks(blocks, truth): ...
feature_width = len
"evaluate_blocks in prose"
def kept():
    def roc_auc_score(): ...
'''
    assert _offenders(ast.parse(code)) == [
        (3, "FaultPlan.describe"),
        (7, "evaluate_blocks"),
        (8, "feature_width"),
    ]


def test_no_module_defines_test_only_surface():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in _offenders(_parse(path))
    ]
    assert not offenders, offenders


@pytest.mark.parametrize("module", GONE_MODULES)
def test_the_test_only_modules_do_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_no_export_table_names_them():
    bare = {name.rpartition(".")[2] for name in GONE}
    offenders = {}
    for path in sorted(ROOT.rglob("__init__.py")):
        table = _exported_names(path, _parse(path))
        named = sorted(
            name for name, module in table.items() if name in bare or module in GONE_MODULES
        )
        if named:
            offenders[str(path.relative_to(ROOT))] = named
    assert not offenders, offenders
