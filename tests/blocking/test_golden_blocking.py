"""Golden regression test for the block-preparation pipeline on DblpAcm.

The exact outcome of ``prepare_blocks`` on a deterministic generated DblpAcm
benchmark (seed 3, scale 0.4) is frozen into
``tests/data/golden_blocking.json``: block counts per stage, per-stage
comparison totals, the first/last block keys, a digest of all candidate
pairs and a pair sample.  Both ``prepare_blocks`` and the object-chain
reference (``reference_prepare_blocks``) are checked against the frozen
values, so a change that shifts blocking output — even one affecting both
identically, which the equivalence tests cannot see — fails here.

To regenerate the fixture after an *intentional* semantic change::

    PYTHONPATH=src:tests python tests/blocking/test_golden_blocking.py --regenerate
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.blocking import prepare_blocks
from repro.datasets import load_benchmark

from reference import pair_tuples, reference_prepare_blocks

pytestmark = pytest.mark.equivalence

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_blocking.json"

DATASET, SEED, SCALE = "DblpAcm", 3, 0.4


IMPLEMENTATIONS = {"loop": reference_prepare_blocks, "array": prepare_blocks}


def _prepare(implementation):
    dataset = load_benchmark(DATASET, seed=SEED, scale=SCALE)
    return IMPLEMENTATIONS[implementation](dataset.first, dataset.second)


def _snapshot(prepared):
    pairs = pair_tuples(prepared.candidates)
    digest = hashlib.sha256(
        ",".join(f"{i}-{j}" for i, j in pairs).encode("ascii")
    ).hexdigest()
    return {
        "raw_blocks": len(prepared.raw_blocks),
        "purged_blocks": len(prepared.purged_blocks),
        "filtered_blocks": len(prepared.blocks),
        "raw_comparisons": prepared.raw_blocks.total_comparisons(),
        "filtered_comparisons": prepared.blocks.total_comparisons(),
        "block_assignments": prepared.blocks.total_block_assignments(),
        "first_keys": [block.key for block in list(prepared.blocks)[:5]],
        "last_keys": [block.key for block in list(prepared.blocks)[-5:]],
        "candidate_pairs": len(pairs),
        "pair_digest": digest,
        "first_pairs": [list(pair) for pair in pairs[:10]],
    }


@pytest.fixture(scope="module")
def golden():
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_prepared_blocks_match_golden(golden, implementation):
    snapshot = _snapshot(_prepare(implementation))
    assert snapshot == golden["snapshot"], (
        f"block preparation ({implementation} implementation) deviates from the frozen "
        "DblpAcm fixture; regenerate only if the change is intentional"
    )


def test_golden_fixture_is_nontrivial(golden):
    snapshot = golden["snapshot"]
    assert snapshot["candidate_pairs"] > 1000
    assert snapshot["raw_blocks"] >= snapshot["purged_blocks"] >= snapshot["filtered_blocks"] > 0


def _regenerate() -> None:
    payload = {
        "description": (
            f"Frozen loop-backend prepare_blocks outcome on {DATASET} "
            f"(seed {SEED}, scale {SCALE})"
        ),
        "snapshot": _snapshot(_prepare("loop")),
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
