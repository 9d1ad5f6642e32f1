"""Golden regression test for a delete-heavy streaming replay on DblpAcm.

The exact outcome of a churned replay — bootstrap-trained frozen model,
interleaved inserts with seeded random deletions (30% churn), CEP
finalisation — is frozen per block cleaning the model is trained under:
``tests/data/golden_churn.json`` for raw blocks (purging and filtering off)
and ``tests/data/golden_churn_cleaned.json`` for ``prepare_blocks``'
defaults, the paper's pipeline, which ``train_frozen_model`` runs unless
told otherwise.  Each holds stream and
retraction counts, the live survivor totals, the retained pair set digest
and a sample of retained pairs, plus recall/precision against the live
ground truth.  A change that shifts the dynamic index's behaviour — even one
the streaming-vs-batch equivalence tests cannot see because it affects both
sides identically — fails here.

To regenerate a fixture after an *intentional* semantic change::

    PYTHONPATH=src python tests/incremental/test_golden_churn.py --regenerate {raw,cleaned}
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.blocking.cleaning import NO_CLEANING, PAPER_CLEANING
from repro.datasets import load_benchmark
from repro.incremental import (
    evaluate_retained_ids,
    ground_truth_id_pairs,
    live_truth_id_pairs,
    replay_stream,
    train_frozen_model,
)

DATA = Path(__file__).resolve().parent.parent / "data"
#: name -> (fixture, the cleaning ``train_frozen_model`` trains under)
GOLDENS = {
    "raw": (DATA / "golden_churn.json", NO_CLEANING),
    "cleaned": (DATA / "golden_churn_cleaned.json", PAPER_CLEANING),
}

DATASET, SEED, SCALE = "DblpAcm", 9, 0.12
PRUNING = "CEP"
DELETE_FRACTION, CHURN_SEED = 0.3, 21


def _replay(cleaning):
    dataset = load_benchmark(DATASET, seed=SEED, scale=SCALE)
    model = train_frozen_model(
        dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=SEED, cleaning=GOLDENS[cleaning][1]
    )
    replay = replay_stream(
        dataset,
        model,
        pruning=PRUNING,
        delete_fraction=DELETE_FRACTION,
        churn_seed=CHURN_SEED,
    )
    return dataset, replay


def _snapshot(dataset, replay):
    final = replay.session.retained()
    retained = sorted(final.retained_ids)
    digest = hashlib.sha256(
        ",".join(f"{a}|{b}" for a, b in retained).encode("utf-8")
    ).hexdigest()
    truth = live_truth_id_pairs(
        replay.session.index,
        ground_truth_id_pairs(dataset.ground_truth, dataset.first, dataset.second),
    )
    recall, precision = evaluate_retained_ids(final, truth)
    return {
        "dataset": DATASET,
        "seed": SEED,
        "scale": SCALE,
        "pruning": PRUNING,
        "delete_fraction": DELETE_FRACTION,
        "churn_seed": CHURN_SEED,
        "inserts": replay.num_inserts,
        "deletes": replay.num_deletes,
        "retracted_pairs": int(replay.retraction_sizes.sum()),
        "live_entities": replay.session.num_entities,
        "live_pairs": replay.session.num_pairs,
        "live_truth_pairs": len(truth),
        "retained_count": final.retained_count,
        "retained_digest": digest,
        "first_retained": [list(pair) for pair in retained[:10]],
        "recall": round(recall, 9),
        "precision": round(precision, 9),
    }


@pytest.mark.parametrize("cleaning", sorted(GOLDENS))
def test_delete_heavy_replay_matches_golden(cleaning):
    with GOLDENS[cleaning][0].open() as handle:
        golden = json.load(handle)
    dataset, replay = _replay(cleaning)
    snapshot = _snapshot(dataset, replay)
    assert snapshot == golden


def _regenerate(cleaning):
    dataset, replay = _replay(cleaning)
    snapshot = _snapshot(dataset, replay)
    path = GOLDENS[cleaning][0]
    path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    for key in ("inserts", "deletes", "live_pairs", "retained_count", "recall"):
        print(f"  {key}: {snapshot[key]}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate(sys.argv[sys.argv.index("--regenerate") + 1])
    else:
        print(__doc__)
