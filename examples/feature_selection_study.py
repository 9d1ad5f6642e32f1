"""Feature-selection study — a scaled-down version of the paper's Section 5.3.

Scores feature-set combinations (capped at 4 features so the example finishes
in about a minute) for BLAST and RCNP on two benchmark profiles and prints
the Table 3/4-style top-10 ranking, highlighting the sets the paper selects
(Formula 1 for BLAST, Formula 2 for RCNP).  Each combination runs through the
experiment runner on every dataset, as ``repro run tables3-4`` runs it.

Run with::

    python examples/feature_selection_study.py
"""

from repro.evaluation import format_table
from repro.experiments import ExperimentConfig, run_feature_selection
from repro.weights import BLAST_FEATURE_SET, RCNP_FEATURE_SET


def main() -> None:
    config = ExperimentConfig.fast(
        dataset_names=("AbtBuy", "DblpAcm"), repetitions=1, max_set_size=4
    )
    print(f"Datasets: {list(config.dataset_names)}")
    print("Scoring the feature combinations of size <= 4 per algorithm...\n")

    for algorithm, paper_choice in (("BLAST", BLAST_FEATURE_SET), ("RCNP", RCNP_FEATURE_SET)):
        result = run_feature_selection(algorithm, config, top_k=10)
        rows = []
        for row in result.top_sets:
            features = set(row["feature_set"].strip("{}").split(", "))
            rows.append(dict(row, paper_choice="<-- paper" if features == set(paper_choice) else ""))
        print(
            format_table(
                rows,
                columns=["id", "feature_set", "recall", "precision", "f1", "runtime_seconds", "paper_choice"],
                title=f"Top-10 feature sets for {algorithm} (cf. Table {'3' if algorithm == 'BLAST' else '4'})",
            )
        )
        print()


if __name__ == "__main__":
    main()
