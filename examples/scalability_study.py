"""Scalability study — a scaled-down version of the paper's Section 5.5.

Runs the ``fig17-18`` and ``table6`` entries of the experiment registry (the
same cases ``repro run`` and ``benchmarks/bench_paper.py`` run): the four
final configurations (BCl, CNP with the [21] settings; BLAST, RCNP with the
new feature sets and 50 labelled pairs) over the synthetic Dirty ER series
D10K–D100K at a laptop-friendly scale, printing the Figure 17 effectiveness
rows and the Figure 18 speedups, then the Table 6 logistic-regression models
BLAST fits on D100K.

Run with::

    python examples/scalability_study.py
"""

from repro.experiments import EXPERIMENTS


def main() -> None:
    for experiment_id in ("fig17-18", "table6"):
        entry = EXPERIMENTS[experiment_id]
        print(f"Running {experiment_id}: {entry.title}...\n")
        print(entry.report(entry.run(entry.config, False)))
        print()
    print(
        "Note how the coefficients vary across iterations: each iteration draws a"
        "\ndifferent 25+25 labelled sample, which is the variance source the paper"
        "\ndiscusses in Section 5.5."
    )


if __name__ == "__main__":
    main()
