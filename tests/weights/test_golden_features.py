"""Golden regression tests for feature generation.

A small deterministic block collection (seeded construction below) has its
exact feature matrix frozen into ``tests/data/golden_features.json``.  Both
implementations — the per-pair reference (``reference_feature_matrix``) and
what the library runs (``FeatureVectorGenerator.generate``) — are checked
against the frozen values, so any change to a scheme or to
:class:`BlockStatistics` that silently shifts a score fails here —
equivalence tests alone would miss a bug that changes both the same way.

To regenerate the fixture after an *intentional* semantic change::

    PYTHONPATH=src:tests python tests/weights/test_golden_features.py --regenerate
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import FeatureVectorGenerator
from repro.datamodel import EntityIndexSpace
from repro.weights import PAPER_FEATURES

from reference import (
    Block,
    BlockCollection,
    block_statistics,
    pair_tuples,
    reference_candidates,
    reference_feature_matrix,
)

pytestmark = pytest.mark.equivalence

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_features.json"

#: every scheme, CBS included (LCP expands to two columns -> 10 columns)
GOLDEN_FEATURE_SET = ("CBS",) + PAPER_FEATURES


def _seeded_members(rng, low, high, size):
    """A sorted unique draw of node ids in ``[low, high)``."""
    pool = np.arange(low, high)
    take = min(size, pool.size)
    return sorted(int(node) for node in rng.choice(pool, size=take, replace=False))


def build_golden_cases():
    """The two deterministic collections frozen in the golden fixture."""
    rng = np.random.default_rng(7)

    bilateral_space = EntityIndexSpace(9, 8)
    bilateral_blocks = BlockCollection(
        [
            Block(
                f"b{index}",
                _seeded_members(rng, 0, 9, int(rng.integers(1, 5))),
                _seeded_members(rng, 9, 17, int(rng.integers(1, 5))),
            )
            for index in range(7)
        ]
        + [Block("empty", []), Block("lonely", [8])],
        bilateral_space,
    )

    unilateral_space = EntityIndexSpace(12, 0)
    unilateral_blocks = BlockCollection(
        [
            Block(f"u{index}", _seeded_members(rng, 0, 11, int(rng.integers(2, 6))))
            for index in range(6)
        ]
        + [Block("singleton", [11])],
        unilateral_space,
    )

    return {
        "bilateral": (bilateral_blocks, reference_candidates(bilateral_blocks)),
        "unilateral": (unilateral_blocks, reference_candidates(unilateral_blocks)),
    }


#: the two implementations of ``(blocks, candidates) -> FeatureMatrix``
IMPLEMENTATIONS = {
    "loop": lambda blocks, candidates: reference_feature_matrix(
        GOLDEN_FEATURE_SET, candidates, blocks
    ),
    "sparse": lambda blocks, candidates: FeatureVectorGenerator(
        GOLDEN_FEATURE_SET
    ).generate(candidates, block_statistics(blocks)),
}


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", ("bilateral", "unilateral"))
@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_feature_matrix_matches_golden(golden, case, implementation):
    blocks, candidates = build_golden_cases()[case]
    frozen = golden[case]
    assert pair_tuples(candidates) == [tuple(pair) for pair in frozen["pairs"]], (
        "the deterministic golden construction changed; regenerate the fixture "
        "only if the change is intentional"
    )
    matrix = IMPLEMENTATIONS[implementation](blocks, candidates)
    assert list(matrix.columns) == frozen["columns"]
    np.testing.assert_allclose(
        matrix.values, np.array(frozen["values"]), rtol=1e-10, atol=1e-13
    )


def test_golden_fixture_is_nontrivial(golden):
    """Guard against an accidentally empty or degenerate frozen matrix."""
    for case in ("bilateral", "unilateral"):
        values = np.array(golden[case]["values"])
        assert values.shape[0] >= 10
        assert values.shape[1] == len(golden[case]["columns"])
        assert np.count_nonzero(values) > values.size / 4


def _regenerate() -> None:
    payload = {
        "description": (
            "Frozen loop-backend feature matrices of the deterministic "
            "collections in test_golden_features.build_golden_cases "
            f"(feature set {list(GOLDEN_FEATURE_SET)})"
        ),
    }
    for case, (blocks, candidates) in build_golden_cases().items():
        matrix = IMPLEMENTATIONS["loop"](blocks, candidates)
        payload[case] = {
            "columns": list(matrix.columns),
            "pairs": [list(pair) for pair in pair_tuples(candidates)],
            "values": matrix.values.tolist(),
        }
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    with GOLDEN_PATH.open("w") as handle:
        json.dump(payload, handle, indent=1)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
