"""A pair's probability is a pure function of its feature row.

``LogisticRegression.decision_function`` used to be a BLAS ``matrix @ coef``,
whose last bit depends on where a row sits in the matrix (SIMD body vs
tail, memory layout, thread count): 587 of 1 604 sampled DblpAcm pairs got a
different probability scored alone than scored in bulk, so insert-time
scores, ``top-k`` subset scores and the exact ``match`` answer disagreed in
the last ulp.  The score is now accumulated column by column with
element-wise ufuncs; these properties — all ``np.array_equal``, no
tolerance — are the arbiter of that formulation, for
``LogisticRegression.predict_proba`` (and ``LinearSVC``'s, which shares the
sum) directly and for ``FrozenModel.score`` with and without a scaler.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.blocking import prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.datasets import load_benchmark
from repro.ml import FrozenModel, LinearSVC, LogisticRegression, MinMaxScaler, StandardScaler
from repro.weights import RCNP_FEATURE_SET

_FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


def _classifier(coefficients, intercept, kind=LogisticRegression):
    classifier = kind()
    classifier.coef_ = np.asarray(coefficients, dtype=np.float64)
    classifier.intercept_ = float(intercept)
    classifier._scaler = None  # LinearSVC: squash the margin, no Platt fit
    return classifier


@st.composite
def models_and_matrices(draw):
    """A scorer of width 1-9 and a matrix of 0-40 rows, constant columns included."""
    width = draw(st.integers(1, 9))
    rows = draw(st.integers(0, 40))
    matrix = draw(hnp.arrays(np.float64, (rows, width), elements=_FINITE))
    for column in draw(st.lists(st.integers(0, width - 1), max_size=3, unique=True)):
        matrix[:, column] = draw(_FINITE)  # constant: its scale becomes 1.0
    classifier = _classifier(
        draw(hnp.arrays(np.float64, (width,), elements=st.floats(-8.0, 8.0, width=64))),
        draw(st.floats(-8.0, 8.0, width=64)),
        draw(st.sampled_from([LogisticRegression, LinearSVC])),
    )
    scaler = draw(st.sampled_from([None, StandardScaler, MinMaxScaler]))
    if scaler is not None:
        fitted_on = matrix if rows else np.zeros((1, width))
        scaler = scaler().fit(fitted_on)
    kind = draw(st.sampled_from(["predict_proba", "frozen"]))
    if kind == "predict_proba" and scaler is None:
        score = classifier.predict_proba
    else:
        score = FrozenModel(classifier, scaler, ("f",) * width).score
    permutation = draw(st.permutations(range(rows)))
    return score, matrix, np.asarray(permutation, dtype=np.int64)


def _assert_rowwise(score, matrix, permutation):
    bulk = score(matrix)
    assert bulk.shape == (matrix.shape[0],)
    for row in range(matrix.shape[0]):
        assert score(matrix[row : row + 1])[0] == bulk[row], row
    for begin, end in ((1, None), (3, -2), (5, 18), (7, 8)):
        assert np.array_equal(score(matrix[begin:end]), bulk[begin:end])
    assert np.array_equal(score(matrix[permutation]), bulk[permutation])
    assert np.array_equal(score(np.ascontiguousarray(matrix)), bulk)
    assert np.array_equal(score(np.asfortranarray(matrix)), bulk)


@given(case=models_and_matrices())
@settings(max_examples=150, deadline=None)
def test_a_score_does_not_depend_on_row_position_slicing_order_or_layout(case):
    _assert_rowwise(*case)


def test_a_zero_row_matrix_scores_to_an_empty_vector():
    classifier = _classifier([0.5, -1.0, 2.0], 0.1)
    scaler = StandardScaler().fit(np.arange(12.0).reshape(4, 3))
    for score in (classifier.predict_proba, FrozenModel(classifier, scaler, ("f",) * 3).score):
        for empty in (np.zeros((0, 3)), np.zeros((0, 3), order="F")):
            assert score(empty).shape == (0,)


@pytest.fixture(scope="module")
def dblp_acm_run():
    dataset = load_benchmark("DblpAcm", seed=3, scale=0.08)
    prepared = prepare_blocks(dataset.first, dataset.second)
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=RCNP_FEATURE_SET, pruning="RCNP", seed=5
    )
    return pipeline.run(
        prepared.blocks,
        prepared.candidates,
        dataset.ground_truth,
        stats=prepared.statistics(),
        keep_features=True,
    )


def test_trained_dblp_acm_model_scores_each_pair_alone_as_in_bulk(dblp_acm_run):
    """The measurement that found the hole, as a test (it fails on a BLAS dot)."""
    result = dblp_acm_run
    model = FrozenModel.from_batch(result)
    matrix = result.feature_matrix.values
    assert matrix.flags.f_contiguous and matrix.shape[1] == 6
    rows = np.arange(0, matrix.shape[0], max(1, matrix.shape[0] // 1600))
    assert rows.size >= 1000
    # the batch answer is this very function applied to the whole matrix
    assert np.array_equal(model.score(matrix), result.probabilities)
    alone = np.array([model.score(matrix[row : row + 1])[0] for row in rows])
    differing = np.flatnonzero(alone != result.probabilities[rows])
    assert differing.size == 0, f"{differing.size} of {rows.size} rows differ"
    _assert_rowwise(model.score, matrix[rows], np.random.default_rng(0).permutation(rows.size))
