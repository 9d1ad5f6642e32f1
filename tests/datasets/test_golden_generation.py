"""Golden regression test for the benchmark generators' output.

Every dataset of the paper's evaluation is generated here, so a change to
how a generator draws its random numbers changes every figure and table.
``tests/data/golden_generation.json`` pins one SHA-256 per (dataset, seed,
scale): the nine Clean-Clean datasets at seeds 0 and 7 (scale 0.05) and the
five Dirty ones at seed 7 (scale 0.03).  A digest covers the entity ids in
collection order, each profile's sorted attribute items and the sorted
ground-truth entity-id pairs (:func:`generation_digest`).

The fixture was recorded by the tree its ``description`` names, before the
sampler drew from a precomputed CDF; it pins that the generators stayed
bit-identical, so never regenerate it to make this test pass.  To record it
on a tree whose output is meant to be pinned::

    PYTHONPATH=src python tests/datasets/test_golden_generation.py --record COMMIT
"""

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import pytest

from repro.datamodel import EntityCollection, GroundTruth
from repro.datasets import (
    CLEAN_CLEAN_ORDER,
    DIRTY_ORDER,
    load_benchmark,
    load_dirty_dataset,
)

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_generation.json"

CLEAN_SEEDS, CLEAN_SCALE = (0, 7), 0.05
DIRTY_SEED, DIRTY_SCALE = 7, 0.03

CASES = [(name, seed, CLEAN_SCALE) for name in CLEAN_CLEAN_ORDER for seed in CLEAN_SEEDS] + [
    (name, DIRTY_SEED, DIRTY_SCALE) for name in DIRTY_ORDER
]


def case_key(name: str, seed: int, scale: float) -> str:
    return f"{name}/seed={seed}/scale={scale}"


def generation_digest(
    collections: Sequence[EntityCollection], ground_truth: GroundTruth
) -> str:
    """SHA-256 over entity ids, sorted attribute items and ground-truth id pairs."""
    ids = [collection.ids() for collection in collections]

    def entity_id(node: int) -> str:
        side, local = ground_truth.index_space.side_of(node)
        return ids[side][local]

    payload = {
        "collections": [
            [[profile.entity_id, sorted(profile.attributes.items())] for profile in collection]
            for collection in collections
        ],
        "ground_truth": sorted([entity_id(i), entity_id(j)] for i, j in ground_truth),
    }
    encoded = json.dumps(payload, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(encoded.encode("ascii")).hexdigest()


def digest_of(name: str, seed: int, scale: float) -> str:
    if name in DIRTY_ORDER:
        dirty = load_dirty_dataset(name, seed=seed, scale=scale)
        return generation_digest([dirty.collection], dirty.ground_truth)
    clean = load_benchmark(name, seed=seed, scale=scale)
    return generation_digest([clean.first, clean.second], clean.ground_truth)


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)["digests"]


@pytest.mark.parametrize("name,seed,scale", CASES, ids=[case_key(*case) for case in CASES])
def test_generation_matches_golden(golden, name, seed, scale):
    assert digest_of(name, seed, scale) == golden[case_key(name, seed, scale)], (
        f"{name} (seed {seed}, scale {scale}) generates different data than the "
        "recorded tree: a generator no longer draws the same random numbers"
    )


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_key(*case) for case in CASES)
    assert len(golden) == 23
    assert len(set(golden.values())) == len(golden)


def record(commit: str) -> None:
    digests: Dict[str, str] = {case_key(*case): digest_of(*case) for case in CASES}
    document = {
        "description": (
            f"SHA-256 of the generated data per (dataset, seed, scale), recorded on commit "
            f"{commit}: entity ids in collection order, sorted attribute items, sorted "
            "ground-truth entity-id pairs (tests/datasets/test_golden_generation.py)"
        ),
        "digests": digests,
    }
    GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    arguments: List[str] = sys.argv[1:]
    if len(arguments) != 2 or arguments[0] != "--record":
        sys.exit("usage: test_golden_generation.py --record COMMIT")
    record(arguments[1])
