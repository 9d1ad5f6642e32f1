"""Golden regression test for the batch pipeline on DblpAcm.

The exact outcome of a run on a deterministic generated DblpAcm benchmark
(seed 3, scale 0.4) is frozen into ``tests/data/golden_parallel.json``: block
counts, a digest of all candidate pairs, a digest of the full 9-scheme
feature matrix, and the retained-pair digests of a weight-based and a
cardinality-based pipeline.  The fixture was written when a multiprocess
engine still existed and was checked against it; the one remaining path —
the single-process one that wrote it — is held to it here.

To regenerate the fixture after an *intentional* semantic change::

    PYTHONPATH=src python tests/integration/test_golden_parallel.py --regenerate
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.core.features import FeatureVectorGenerator
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.datasets import load_benchmark
from repro.weights import PAPER_FEATURES

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_parallel.json"

DATASET, SEED, SCALE = "DblpAcm", 3, 0.4
ALL_SCHEMES = tuple(PAPER_FEATURES) + ("CBS",)


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _snapshot():
    dataset = load_benchmark(DATASET, seed=SEED, scale=SCALE)
    prepared = prepare_blocks(dataset.first, dataset.second)
    matrix = FeatureVectorGenerator(ALL_SCHEMES).generate(
        prepared.candidates, prepared.statistics()
    )
    retained = {}
    for pruning in ("BLAST", "RCNP"):
        result = GeneralizedSupervisedMetaBlocking(
            pruning=pruning, training_size=50, seed=0
        ).run(
            prepared.blocks,
            prepared.candidates,
            dataset.ground_truth,
            stats=prepared.statistics(),
        )
        retained[pruning] = {
            "count": result.retained_count,
            "digest": _digest(
                np.stack((result.retained.left, result.retained.right))
            ),
        }
    return {
        "raw_blocks": len(prepared.raw_blocks),
        "filtered_blocks": len(prepared.blocks),
        "candidate_pairs": len(prepared.candidates),
        "pair_digest": _digest(np.stack((prepared.candidates.left, prepared.candidates.right))),
        "feature_columns": list(matrix.columns),
        "feature_digest": _digest(matrix.values),
        "retained": retained,
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def test_pipeline_matches_golden(golden):
    assert _snapshot() == golden["snapshot"], (
        "the batch pipeline deviates from the frozen DblpAcm fixture; "
        "regenerate only if the change is intentional"
    )


def test_golden_fixture_is_nontrivial(golden):
    snapshot = golden["snapshot"]
    assert snapshot["candidate_pairs"] > 1000
    assert snapshot["retained"]["BLAST"]["count"] > 0
    assert snapshot["retained"]["RCNP"]["count"] > 0
    assert len(snapshot["feature_columns"]) == 10  # 8 one-column + LCP twice


def _regenerate() -> None:
    payload = {
        # the fixture's own wording, kept so that regenerating an unchanged
        # outcome rewrites the file byte for byte
        "description": (
            f"Frozen single-process (workers=1) outcome on {DATASET} "
            f"(seed {SEED}, scale {SCALE}); the parallel engine is checked "
            "against it"
        ),
        "snapshot": _snapshot(),
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
