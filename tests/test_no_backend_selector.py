"""No layer has a user-settable implementation selector.

Each weighting scheme has one formula and block preparation one chain; which
implementation evaluates them is not a parameter of the method.  These guards
fail if a ``backend=`` / ``blocking_backend=`` argument, field or export
comes back (the CLI flags are guarded in ``tests/test_cli.py``).
"""

import dataclasses
import inspect

import pytest

import repro.blocking
import repro.weights
from repro.blocking import PreparedBlocks, prepare_blocks
from repro.core import FeatureVectorGenerator, generate_features
from repro.core.features import FeatureMatrix
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.experiments import ExperimentConfig, run_block_quality
from repro.experiments.common import (
    prepare_benchmark_dataset,
    prepare_dirty_dataset,
    prepare_dirty_datasets,
)
from repro.experiments.feature_runtime import FeatureRuntimeRow
from repro.incremental.stream import train_frozen_model
from repro.metablocking import build_blocking_graph
from repro.weights import WeightingScheme

SELECTORS = {"backend", "blocking_backend"}


@pytest.mark.parametrize(
    "entry_point",
    [
        FeatureVectorGenerator,
        generate_features,
        GeneralizedSupervisedMetaBlocking,
        build_blocking_graph,
        prepare_blocks,
        train_frozen_model,
        ExperimentConfig,
        prepare_benchmark_dataset,
        prepare_dirty_dataset,
        prepare_dirty_datasets,
        run_block_quality,
    ],
    ids=lambda entry_point: entry_point.__name__,
)
def test_entry_point_takes_no_selector(entry_point):
    assert not SELECTORS & set(inspect.signature(entry_point).parameters)


@pytest.mark.parametrize(
    "record", [FeatureMatrix, PreparedBlocks, FeatureRuntimeRow, ExperimentConfig]
)
def test_record_carries_no_selector_field(record):
    assert not SELECTORS & {field.name for field in dataclasses.fields(record)}


def test_selector_names_are_not_exported():
    assert not hasattr(WeightingScheme, "compute_with_backend")
    for module, names in (
        (repro.weights, ("BACKENDS", "resolve_backend")),
        (repro.blocking, ("BLOCKING_BACKENDS", "resolve_blocking_backend")),
    ):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in module.__all__
