"""Customer-database deduplication (Dirty ER) — the paper's motivating scenario.

The paper is motivated by the deduplication of a legacy customer database
(~7.5M electricity supplies with name, address and mostly-empty optional
fields).  This example reproduces that workflow at laptop scale with the
Dirty ER generator: a single "dirty" collection containing corrupted copies
of customer records, deduplicated end to end with schema-agnostic blocking
plus Generalized Supervised Meta-blocking, while keeping human labelling to
just 50 pairs.

Run with::

    python examples/customer_deduplication.py
"""

from repro import (
    GeneralizedSupervisedMetaBlocking,
    evaluate_candidates,
    evaluate_result,
    load_dirty_dataset,
    prepare_blocks,
)
from repro.core import SupervisedRCNP
from repro.ml import LogisticRegression
from repro.weights import RCNP_FEATURE_SET


def main() -> None:
    # A Dirty ER dataset: one collection, ~30 % of the records are corrupted
    # copies (typos, missing values) of other records in the same collection.
    dataset = load_dirty_dataset("D50K", seed=3, scale=0.05)
    collection = dataset.collection
    print(f"Customer registry: {len(collection)} records, {len(dataset.ground_truth)} duplicate pairs")

    # Schema-agnostic blocking: no blocking key needs to be designed, every
    # token of every attribute is a signature.
    prepared = prepare_blocks(collection, None)
    before = evaluate_candidates(prepared.candidates, dataset.ground_truth)
    print(
        f"Token Blocking + Purging + Filtering -> {len(prepared.candidates)} candidate pairs "
        f"(recall={before.recall:.3f}, precision={before.precision:.5f})"
    )

    # A deduplication back-office wants a short, high-precision list of pairs
    # to review, so we use the cardinality-based RCNP with the Formula 2
    # features and only 50 labelled pairs (25 matches + 25 non-matches).
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=RCNP_FEATURE_SET,
        pruning=SupervisedRCNP(),
        classifier_factory=LogisticRegression,
        training_size=50,
        seed=1,
    )
    result = pipeline.run(
        prepared.blocks,
        prepared.candidates,
        dataset.ground_truth,
        stats=prepared.statistics(),
    )
    after = evaluate_result(result, dataset.ground_truth)

    print(f"Review list: {result.retained_count} pairs "
          f"({100 * result.retained_count / len(prepared.candidates):.1f}% of the candidates)")
    print(f"  recall={after.recall:.3f}  precision={after.precision:.3f}  f1={after.f1:.3f}")

    # Show a few of the highest-probability pairs the reviewer would see first.
    import numpy as np

    order = np.argsort(-result.probabilities)
    shown = 0
    print("\nTop suggested duplicate pairs:")
    for position in order:
        if not result.retained_mask[position]:
            continue
        pair = result.candidates.pair_at(int(position))
        left = collection[pair.left]
        right = collection[pair.right]
        is_match = dataset.ground_truth.is_match(pair.left, pair.right)
        print(
            f"  p={result.probabilities[position]:.2f}  "
            f"[{left.entity_id}] {left.text()[:40]!r}  <->  "
            f"[{right.entity_id}] {right.text()[:40]!r}  match={is_match}"
        )
        shown += 1
        if shown >= 5:
            break


if __name__ == "__main__":
    main()
