"""Product matching across two catalogues (Clean-Clean ER), comparing algorithms.

Matches a noisy product feed (the AbtBuy-profile benchmark) against a second
catalogue and compares the main configurations of the paper on the same
blocks:

* the Supervised Meta-blocking baseline (BCl with the original feature set);
* unsupervised WNP on RACCB weights (no labels at all): the same WNP
  criterion, applied with ``retain`` to every pair's scheme weight instead of
  to the valid pairs' probabilities;
* Generalized Supervised Meta-blocking with BLAST (recall-oriented) and
  RCNP (precision-oriented).

Run with::

    python examples/product_matching_pipeline.py
"""

from repro import (
    GeneralizedSupervisedMetaBlocking,
    evaluate_candidates,
    evaluate_result,
    evaluate_retained_mask,
    get_pruning_algorithm,
    load_benchmark,
    prepare_blocks,
)
from repro.evaluation import format_table
from repro.weights import (
    BLAST_FEATURE_SET,
    ORIGINAL_FEATURE_SET,
    RCNP_FEATURE_SET,
    get_scheme,
)


def main() -> None:
    dataset = load_benchmark("AbtBuy", seed=11)
    print(f"Catalogue A: {len(dataset.first)} products, catalogue B: {len(dataset.second)} products")
    print(f"Known matches: {len(dataset.ground_truth)}")

    prepared = prepare_blocks(dataset.first, dataset.second)
    baseline = evaluate_candidates(prepared.candidates, dataset.ground_truth)

    rows = [
        {
            "configuration": "input blocks (no meta-blocking)",
            "pairs": len(prepared.candidates),
            "recall": baseline.recall,
            "precision": baseline.precision,
            "f1": baseline.f1,
        }
    ]

    # Unsupervised meta-blocking: WNP's criterion on every pair's RACCB weight.
    weights = get_scheme("RACCB").compute(prepared.candidates, prepared.statistics())[:, 0]
    mask = get_pruning_algorithm("WNP").retain(weights, prepared.candidates)
    labels = dataset.ground_truth.labels_for(prepared.candidates)
    unsupervised = evaluate_retained_mask(mask, labels, len(dataset.ground_truth))
    rows.append(
        {
            "configuration": "unsupervised WNP (RACCB weights)",
            "pairs": int(mask.sum()),
            "recall": unsupervised.recall,
            "precision": unsupervised.precision,
            "f1": unsupervised.f1,
        }
    )

    # Supervised configurations, all trained on the same 50 labelled pairs.
    configurations = {
        "BCl — Supervised Meta-blocking [21]": dict(
            feature_set=ORIGINAL_FEATURE_SET, pruning="BCl"
        ),
        "BLAST — Generalized (weight-based)": dict(
            feature_set=BLAST_FEATURE_SET, pruning="BLAST"
        ),
        "RCNP — Generalized (cardinality-based)": dict(
            feature_set=RCNP_FEATURE_SET, pruning="RCNP"
        ),
    }
    for label, keyword_arguments in configurations.items():
        pipeline = GeneralizedSupervisedMetaBlocking(
            training_size=50, seed=5, **keyword_arguments
        )
        result = pipeline.run(
            prepared.blocks,
            prepared.candidates,
            dataset.ground_truth,
            stats=prepared.statistics(),
        )
        report = evaluate_result(result, dataset.ground_truth)
        rows.append(
            {
                "configuration": label,
                "pairs": result.retained_count,
                "recall": report.recall,
                "precision": report.precision,
                "f1": report.f1,
            }
        )

    print()
    print(
        format_table(
            rows,
            columns=["configuration", "pairs", "recall", "precision", "f1"],
            title="Product matching on AbtBuy — candidate pairs handed to the matcher",
        )
    )
    print(
        "\nBLAST keeps recall high for a matcher that can recover precision later;"
        "\nRCNP hands over the shortest, most precise list of pairs."
    )


if __name__ == "__main__":
    main()
