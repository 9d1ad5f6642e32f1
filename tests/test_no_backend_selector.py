"""No layer has a user-settable implementation selector or worker pool.

Each weighting scheme has one formula and block preparation one chain; which
implementation evaluates them is not a parameter of the method.  These guards
fail if a ``backend=`` / ``blocking_backend=`` argument, field or export
comes back (the CLI flags are guarded in ``tests/test_cli.py``).

Nor does anything run on a process pool: measured, pickling profiles out and
arrays back cost more than the work a pool distributes, at every size this
library runs.  So ``workers=`` / ``executor=`` / ``tokenize_workers=`` /
``signature_lists=`` are refused too, ``repro.parallel`` does not exist, and
no module creates a pool (the serving daemon's shard workers are
``Process``es with their own supervisor).
"""

import ast
import dataclasses
import importlib.util
import inspect

import pytest

import repro.blocking
import repro.weights
from repro.blocking import PreparedBlocks, prepare_blocks
from repro.core import FeatureVectorGenerator
from repro.core.features import FeatureMatrix
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.experiments import ExperimentConfig, run_block_quality
from repro.experiments.common import prepare_dataset
from repro.experiments.feature_runtime import FeatureRuntimeRow
from repro.incremental.index import MutableBlockIndex
from repro.incremental.session import MatchingSession
from repro.incremental.stream import train_frozen_model
from repro.persistence.recovery import recover_session
from repro.persistence.snapshot import build_index_from_state, construct_index
from repro.serve.daemon import MatchingDaemon
from repro.weights import WeightingScheme
from test_import_layering import ROOT, _imports, _parse

SELECTORS = {"backend", "blocking_backend"}
POOL_KNOBS = {"workers", "executor", "tokenize_workers", "signature_lists"}

BATCH_ENTRY_POINTS = [
    FeatureVectorGenerator,
    GeneralizedSupervisedMetaBlocking,
    prepare_blocks,
    train_frozen_model,
    ExperimentConfig,
    prepare_dataset,
    run_block_quality,
]


@pytest.mark.parametrize(
    "entry_point", BATCH_ENTRY_POINTS, ids=lambda entry_point: entry_point.__name__
)
def test_entry_point_takes_no_selector(entry_point):
    assert not SELECTORS & set(inspect.signature(entry_point).parameters)


@pytest.mark.parametrize(
    "entry_point",
    BATCH_ENTRY_POINTS
    + [
        FeatureVectorGenerator.generate,
        GeneralizedSupervisedMetaBlocking.run,
        MatchingDaemon,
        construct_index,
        build_index_from_state,
        recover_session,
        MatchingSession.insert_bulk,
        MutableBlockIndex.add_entities_bulk,
    ],
    ids=lambda entry_point: entry_point.__qualname__,
)
def test_entry_point_takes_no_pool_knob(entry_point):
    assert not POOL_KNOBS & set(inspect.signature(entry_point).parameters)


@pytest.mark.parametrize(
    "record", [FeatureMatrix, PreparedBlocks, FeatureRuntimeRow, ExperimentConfig]
)
def test_record_carries_no_selector_field(record):
    fields = {field.name for field in dataclasses.fields(record)}
    assert not (SELECTORS | POOL_KNOBS) & fields


def test_the_parallel_package_is_gone():
    assert importlib.util.find_spec("repro.parallel") is None


def test_no_module_creates_a_process_pool():
    pools = {"Pool", "ProcessPoolExecutor"}
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        tree = _parse(path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = node.func
            name = getattr(called, "attr", None) or getattr(called, "id", None)
            if name in pools:
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno}")
        offenders += [
            f"{path.relative_to(ROOT)}:{statement.lineno}"
            for module, statement in _imports(path, tree)
            if module == "multiprocessing.pool"
        ]
    assert not offenders, f"a process pool is created at {offenders}"


def test_selector_names_are_not_exported():
    assert not hasattr(WeightingScheme, "compute_with_backend")
    for module, names in (
        (repro.weights, ("BACKENDS", "resolve_backend")),
        (repro.blocking, ("BLOCKING_BACKENDS", "resolve_blocking_backend")),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__
