"""Quickstart — Generalized Supervised Meta-blocking in ~40 lines.

Generates the DblpAcm benchmark (a synthetic stand-in for the bibliographic
corpus used in the paper), builds the paper's input block collection (Token
Blocking + Block Purging + Block Filtering), runs the BLAST pipeline with 50
labelled pairs and reports how much precision improved at what recall cost.

Run with::

    python examples/quickstart.py
"""

from repro import (
    GeneralizedSupervisedMetaBlocking,
    evaluate_candidates,
    evaluate_result,
    load_benchmark,
    prepare_blocks,
)


def main() -> None:
    # 1. Load (generate) a Clean-Clean ER benchmark with its ground truth.
    dataset = load_benchmark("DblpAcm", seed=7)
    print(f"Dataset {dataset.name}: {dataset.summary()}")

    # 2. Build the redundancy-positive block collection the paper starts from.
    prepared = prepare_blocks(dataset.first, dataset.second)
    before = evaluate_candidates(prepared.candidates, dataset.ground_truth)
    print(
        f"Input blocks: {len(prepared.blocks)} blocks, {len(prepared.candidates)} candidate pairs"
    )
    print(
        f"  recall={before.recall:.3f}  precision={before.precision:.5f}  f1={before.f1:.5f}"
    )

    # 3. Run Generalized Supervised Meta-blocking: BLAST pruning over the
    #    probabilities of a classifier trained on just 50 labelled pairs.
    pipeline = GeneralizedSupervisedMetaBlocking(
        pruning="BLAST",        # weight-based pruning (recall-friendly)
        training_size=50,       # 25 matching + 25 non-matching labelled pairs
        seed=0,
    )
    #    The statistics reuse what block preparation already computed.
    result = pipeline.run(
        prepared.blocks,
        prepared.candidates,
        dataset.ground_truth,
        stats=prepared.statistics(),
    )
    after = evaluate_result(result, dataset.ground_truth)

    # 4. Report the improvement.
    print(f"Retained {result.retained_count} of {len(prepared.candidates)} candidate pairs")
    print(
        f"  recall={after.recall:.3f}  precision={after.precision:.3f}  f1={after.f1:.3f}"
        f"  (run-time {result.runtime_seconds:.2f}s)"
    )
    print(
        f"Precision improved {after.precision / max(before.precision, 1e-12):.0f}x "
        f"while keeping {100 * after.recall / max(before.recall, 1e-12):.1f}% of the recall."
    )


if __name__ == "__main__":
    main()
