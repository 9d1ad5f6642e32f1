"""The feature matrix is feature-major, scored by column, over a read-only cache.

Guards (flags and AST, no timing) for what keeps the answer's two largest
layers off their row-major passes:

* every producer hands out an F-contiguous ``FeatureMatrix.values`` — the
  batch generator, the delta generator (also after it swapped the LCP
  columns of a bilateral index) and ``generate_all`` — at widths 1, 4 and 6
  and for zero pairs; ``core/features.py`` never stacks columns (a row of
  ``tests/test_guards.py``);
* ``repro.ml.base.linear_scores``, behind both linear classifiers'
  ``decision_function``, contains no matrix product (its product calls are
  rows of the guard table; the ``@`` operator is checked here), and
  the batch pipeline scales its training rows and scores through the one
  ``FrozenModel`` — it calls no ``transform`` or ``predict_proba`` itself;
* the cached co-occurrence aggregates, and the CBS / RACCB / RS columns that
  are views of them, refuse writes, so generating twice gives one matrix.
"""

import ast

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.core import FeatureVectorGenerator
from repro.datamodel import CandidateSet
from repro.datasets import load_benchmark, load_dirty_dataset
from repro.incremental import DeltaFeatureGenerator, MutableBlockIndex, interleave_profiles
from repro.weights import BLAST_FEATURE_SET, RCNP_FEATURE_SET, SCHEME_CLASSES
from source_tree import ROOT, parse

pytestmark = pytest.mark.equivalence

#: widths 1, 4 and 6
FEATURE_SETS = (("JS",), BLAST_FEATURE_SET, RCNP_FEATURE_SET)


@pytest.fixture(scope="module")
def clean():
    return load_benchmark("DblpAcm", seed=4, scale=0.05)


def _is_feature_major(matrix, n_pairs, feature_set):
    width = len(FeatureVectorGenerator(feature_set).columns)
    return matrix.values.shape == (n_pairs, width) and matrix.values.flags.f_contiguous


@pytest.mark.parametrize("feature_set", FEATURE_SETS, ids=len)
def test_the_batch_generator_is_feature_major(clean, feature_set):
    for prepared in (
        prepare_blocks(clean.first, clean.second),
        prepare_blocks(load_dirty_dataset("D10K", seed=4, scale=0.03).collection),
    ):
        generator = FeatureVectorGenerator(feature_set)
        candidates, stats = prepared.candidates, prepared.statistics()
        assert len(candidates) > 100
        assert _is_feature_major(generator.generate(candidates, stats), len(candidates), feature_set)
        nothing = candidates.subset(np.zeros(len(candidates), dtype=bool))
        assert _is_feature_major(generator.generate(nothing, stats), 0, feature_set)


@pytest.mark.parametrize("feature_set", FEATURE_SETS, ids=len)
def test_the_delta_generator_is_feature_major_after_orienting_lcp(clean, feature_set):
    index = MutableBlockIndex(bilateral=True)
    generator = DeltaFeatureGenerator(index, feature_set)
    candidates, matrix, _ = generator.generate_all()
    assert len(candidates) == 0 and _is_feature_major(matrix, 0, feature_set)
    for profile, side in interleave_profiles(clean.first, clean.second):
        delta = index.add_entity(profile, side=side)
    assert _is_feature_major(generator.generate_delta(delta), delta.num_new_pairs, feature_set)

    candidates, matrix, _ = generator.generate_all()
    assert _is_feature_major(matrix, len(candidates), feature_set)
    # interleaved arrival puts second-side entities on the left of some
    # pairs: the LCP columns of those rows were swapped in place
    swapped = index.sides()[candidates.left] == 1
    assert swapped.any() and not swapped.all()
    if "LCP" in feature_set:
        column = matrix.columns.index("LCP(e_i)")
        degrees = index.statistics().local_candidate_counts_sparse()
        first_side = np.where(swapped, candidates.right, candidates.left)
        assert np.array_equal(matrix.values[:, column], degrees[first_side])
    some = CandidateSet(candidates.left[5:40], candidates.right[5:40], candidates.index_space)
    assert _is_feature_major(generator.generate(some), 35, feature_set)


def _function(path, name):
    return next(
        node
        for node in ast.walk(parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


@pytest.mark.parametrize(
    "module, function",
    [
        ("base.py", "linear_scores"),
        ("logistic_regression.py", "decision_function"),
        ("svm.py", "decision_function"),
    ],
)
def test_the_linear_score_contains_no_matrix_product(module, function):
    tree = _function(ROOT / "ml" / module, function)
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_the_pipeline_scales_and_scores_through_the_frozen_model():
    stages = _function(ROOT / "core" / "pipeline.py", "run")
    arguments = {
        node.func.attr: ast.unparse(node.args[0])
        for node in ast.walk(stages)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.args
    }
    # no scoring arithmetic of its own: the training rows are the only thing
    # scaled outside ``score``, and by the model that will score
    assert not {"predict_proba", "decision_function", "transform", "fit_transform"} & set(arguments)
    assert arguments["scaled"] == "training_set.features"
    assert arguments["score"] == "feature_matrix.values"


def test_the_cooccurrence_cache_and_its_column_views_are_read_only(clean):
    prepared = prepare_blocks(clean.first, clean.second)
    candidates, stats = prepared.candidates, prepared.statistics()
    generator = FeatureVectorGenerator(("CBS", "RACCB", "RS", "CF-IBF", "NRS", "LCP"))
    before = generator.generate(candidates, stats).values.copy()

    for array in stats.pair_cooccurrence(candidates):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = -1.0
    for name in ("CBS", "RACCB", "RS"):
        column = SCHEME_CLASSES[name]().compute(candidates, stats)
        assert column.shape == (len(candidates), 1)
        with pytest.raises(ValueError, match="read-only"):
            column[0, 0] = -1.0
    # computed (not seeded) aggregates are frozen by the same cache
    subset = candidates.subset(np.arange(0, len(candidates), 2))
    with pytest.raises(ValueError, match="read-only"):
        stats.pair_cooccurrence(subset).common[0] = -1.0

    # the matrix itself is the caller's: writable, and not a view of the cache
    matrix = generator.generate(candidates, stats)
    assert np.array_equal(matrix.values, before)
    matrix.values[:, :3] = -1.0
    assert np.array_equal(generator.generate(candidates, stats).values, before)
