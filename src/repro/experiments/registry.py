"""The paper's experiments: one named entry per figure / table.

``repro list`` / ``repro run <id>``, ``benchmarks/bench_paper.py`` and
``examples/scalability_study.py`` all read :data:`EXPERIMENTS`, so each
experiment's run, its report and the paper's values are written here once.

An entry's ``config`` is its fast case: what ``make bench-paper`` runs, and
what ``repro run <id>`` runs when no flag overrides a field of it.  ``run``'s
``full`` flag (the benches' ``--full-benchmarks``) selects the paper-scale
case: ``full_config`` where the entry has one (all nine datasets, three
repetitions), the whole training-size and feature-set sweeps, the full Dirty
ER series.  The findings the benches assert on each result stay with the
benches; the entry holds what is measured and what the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..core.pruning import CARDINALITY_BASED_ALGORITHMS, WEIGHT_BASED_ALGORITHMS
from ..datasets.registry import DIRTY_ORDER
from ..evaluation.reporting import format_measure_series, format_table
from ..weights.registry import BLAST_FEATURE_SET, ORIGINAL_FEATURE_SET as ORIGINAL
from .algorithm_comparison import COMPARED_ALGORITHMS, format_figure10, run_figure10
from .block_quality import format_block_quality, run_block_quality
from .common import ExperimentConfig
from .common_blocks import format_common_blocks, run_common_block_distribution
from .feature_runtime import BLAST_TOP10, RCNP_TOP10, format_feature_runtime, run_feature_runtime
from .feature_selection import format_feature_selection, run_feature_selection
from .final_comparison import format_final_comparison, run_final_comparison
from .probability_density import format_probability_density, run_probability_density
from .pruning_selection import format_pruning_selection, run_pruning_selection
from .scalability import format_scalability, format_speedups, format_table6, run_scalability, run_table6
from .training_size import (
    FAST_TRAINING_SIZES, PAPER_TRAINING_SIZES, format_training_size, run_training_size_sweep,
)


@dataclass(frozen=True)
class Experiment:
    """One figure / table of the paper's evaluation."""

    title: str
    #: the fast case: what ``make bench-paper`` runs and ``repro run`` defaults to
    config: ExperimentConfig
    #: ``run(config, full)`` -> the experiment's result object
    run: Callable[[ExperimentConfig, bool], Any]
    #: ``report(result)`` -> the text ``repro run`` prints and the bench saves
    report: Callable[[Any], str]
    #: the ``ExperimentConfig`` fields ``run`` reads; ``repro run`` refuses a
    #: flag that sets any other, since the run would ignore it
    reads: Tuple[str, ...]
    #: the paper's values, as data (empty where the paper gives none to compare)
    reference: Mapping[str, Any] = field(default_factory=dict)
    #: the paper-scale configuration, where it differs from ``config``
    full_config: Optional[ExperimentConfig] = None

    def config_for(self, full: bool) -> ExperimentConfig:
        """The configuration of the fast (``full=False``) or paper-scale case."""
        return self.full_config if full and self.full_config is not None else self.config


#: the effectiveness figures / tables: four datasets, one repetition, 500 labels
_FAST = ExperimentConfig.fast(repetitions=1, training_size=500)
#: ... and at paper scale: all nine datasets, three repetitions
_FULL = ExperimentConfig(repetitions=3, training_size=500, seed=0)
#: the expensive sweeps: two datasets, one repetition
_SMALL = ExperimentConfig.fast(dataset_names=("AbtBuy", "DblpAcm"), repetitions=1)
#: the run-time figures, on the two largest datasets
_LARGEST = replace(_SMALL, dataset_names=("Movies", "WalmartAmazon"))
#: what a sweep reads of its configuration: the datasets, the repetitions of
#: each run and the seed; ``_TRAINED`` runs also take their training size from it
_SWEEP = ("dataset_names", "repetitions", "seed")
_TRAINED = _SWEEP + ("training_size",)


# -- the paper's values ---------------------------------------------------------------

#: Table 2: the input block collections
TABLE2 = {
    "AbtBuy": {"recall": 0.948, "precision": 2.78e-2, "f1": 5.40e-2},
    "DblpAcm": {"recall": 0.999, "precision": 4.81e-2, "f1": 9.18e-2},
    "ScholarDblp": {"recall": 0.998, "precision": 2.80e-3, "f1": 5.58e-3},
    "AmazonGP": {"recall": 0.840, "precision": 1.29e-2, "f1": 2.54e-2},
    "ImdbTmdb": {"recall": 0.988, "precision": 1.78e-2, "f1": 3.50e-2},
    "ImdbTvdb": {"recall": 0.985, "precision": 8.90e-3, "f1": 1.76e-2},
    "TmdbTvdb": {"recall": 0.989, "precision": 5.50e-3, "f1": 1.09e-2},
    "Movies": {"recall": 0.976, "precision": 8.59e-4, "f1": 1.72e-3},
    "WalmartAmazon": {"recall": 1.000, "precision": 4.22e-5, "f1": 8.44e-5},
}

#: approximate averages read off Figure 5 (weight-based algorithms)
FIGURE5 = {
    "BCl": {"recall": 0.87, "precision": 0.155, "f1": 0.255},
    "WEP": {"recall": 0.82, "precision": 0.25, "f1": 0.366},
    "WNP": {"recall": 0.87, "precision": 0.20, "f1": 0.305},
    "RWNP": {"recall": 0.81, "precision": 0.26, "f1": 0.374},
    "BLAST": {"recall": 0.88, "precision": 0.19, "f1": 0.285},
}

#: approximate averages read off Figure 6 (cardinality-based algorithms)
FIGURE6 = {
    "CEP": {"recall": 0.86, "precision": 0.17, "f1": 0.26},
    "CNP": {"recall": 0.88, "precision": 0.18, "f1": 0.27},
    "RCNP": {"recall": 0.85, "precision": 0.245, "f1": 0.35},
}

#: Tables 3 and 4 headlines: each algorithm's top-10 sets all score alike
TABLES3_4 = {
    "BLAST": {"recall": 0.8816, "precision": 0.1932, "f1": 0.2892},
    "RCNP": {"recall": 0.850, "precision": 0.248, "f1": 0.353},
}

#: approximate averages read off Figure 8
FIGURE8 = {
    "BCl": {"recall": 0.87, "precision": 0.17, "f1": 0.26},
    "BLAST": {"recall": 0.88, "precision": 0.19, "f1": 0.29},
    "CNP": {"recall": 0.89, "precision": 0.18, "f1": 0.265},
    "RCNP": {"recall": 0.85, "precision": 0.25, "f1": 0.35},
}

#: Table 5 (weight-based algorithms, per dataset)
TABLE5 = {
    "BLAST": {
        "AbtBuy": {"recall": 0.8345, "precision": 0.2037, "f1": 0.3265},
        "DblpAcm": {"recall": 0.9511, "precision": 0.6509, "f1": 0.7690},
        "ScholarDblp": {"recall": 0.9638, "precision": 0.3418, "f1": 0.4988},
        "AmazonGP": {"recall": 0.7001, "precision": 0.1441, "f1": 0.2385},
        "ImdbTmdb": {"recall": 0.8223, "precision": 0.5756, "f1": 0.6726},
        "ImdbTvdb": {"recall": 0.7483, "precision": 0.2304, "f1": 0.3456},
        "TmdbTvdb": {"recall": 0.8466, "precision": 0.2477, "f1": 0.3770},
        "Movies": {"recall": 0.9151, "precision": 0.1300, "f1": 0.2221},
        "WalmartAmazon": {"recall": 0.9587, "precision": 0.0025, "f1": 0.0050},
    },
    "BCl1": {
        "AbtBuy": {"recall": 0.8345, "precision": 0.1821, "f1": 0.2981},
        "DblpAcm": {"recall": 0.9521, "precision": 0.5971, "f1": 0.7303},
        "ScholarDblp": {"recall": 0.9588, "precision": 0.3595, "f1": 0.5195},
        "AmazonGP": {"recall": 0.6265, "precision": 0.1607, "f1": 0.2572},
        "ImdbTmdb": {"recall": 0.7889, "precision": 0.6445, "f1": 0.7086},
        "ImdbTvdb": {"recall": 0.6966, "precision": 0.2616, "f1": 0.3785},
        "TmdbTvdb": {"recall": 0.6972, "precision": 0.3737, "f1": 0.4613},
        "Movies": {"recall": 0.9039, "precision": 0.0972, "f1": 0.1735},
        "WalmartAmazon": {"recall": 0.9500, "precision": 0.0020, "f1": 0.0041},
    },
    "BCl2": {
        "AbtBuy": {"recall": 0.8183, "precision": 0.2039, "f1": 0.3261},
        "DblpAcm": {"recall": 0.9513, "precision": 0.6130, "f1": 0.7425},
        "ScholarDblp": {"recall": 0.9303, "precision": 0.3921, "f1": 0.5401},
        "AmazonGP": {"recall": 0.7316, "precision": 0.1131, "f1": 0.1908},
        "ImdbTmdb": {"recall": 0.7872, "precision": 0.5969, "f1": 0.6604},
        "ImdbTvdb": {"recall": 0.7074, "precision": 0.2323, "f1": 0.3395},
        "TmdbTvdb": {"recall": 0.8172, "precision": 0.2312, "f1": 0.2991},
        "Movies": {"recall": 0.9100, "precision": 0.0239, "f1": 0.0465},
        "WalmartAmazon": {"recall": 0.5757, "precision": 0.0001, "f1": 0.0001},
    },
}

#: Table 7 (cardinality-based algorithms, per dataset)
TABLE7 = {
    "RCNP": {
        "AbtBuy": {"recall": 0.8405, "precision": 0.1764, "f1": 0.2914},
        "DblpAcm": {"recall": 0.9759, "precision": 0.6463, "f1": 0.7747},
        "ScholarDblp": {"recall": 0.9623, "precision": 0.3591, "f1": 0.5190},
        "AmazonGP": {"recall": 0.7358, "precision": 0.1264, "f1": 0.2148},
        "ImdbTmdb": {"recall": 0.8395, "precision": 0.3540, "f1": 0.4971},
        "ImdbTvdb": {"recall": 0.7465, "precision": 0.2325, "f1": 0.3498},
        "TmdbTvdb": {"recall": 0.8696, "precision": 0.1848, "f1": 0.2954},
        "Movies": {"recall": 0.9275, "precision": 0.0992, "f1": 0.1758},
        "WalmartAmazon": {"recall": 0.9122, "precision": 0.0050, "f1": 0.0100},
    },
    "CNP1": {
        "AbtBuy": {"recall": 0.8294, "precision": 0.1797, "f1": 0.2939},
        "DblpAcm": {"recall": 0.9613, "precision": 0.5984, "f1": 0.7355},
        "ScholarDblp": {"recall": 0.9218, "precision": 0.3745, "f1": 0.5095},
        "AmazonGP": {"recall": 0.7462, "precision": 0.1031, "f1": 0.1748},
        "ImdbTmdb": {"recall": 0.8045, "precision": 0.5471, "f1": 0.6394},
        "ImdbTvdb": {"recall": 0.7615, "precision": 0.1867, "f1": 0.2847},
        "TmdbTvdb": {"recall": 0.8641, "precision": 0.1720, "f1": 0.2487},
        "Movies": {"recall": 0.8200, "precision": 0.0090, "f1": 0.0177},
        "WalmartAmazon": {"recall": 0.7087, "precision": 0.0002, "f1": 0.0004},
    },
    "CNP2": {
        "AbtBuy": {"recall": 0.8347, "precision": 0.1895, "f1": 0.3081},
        "DblpAcm": {"recall": 0.9539, "precision": 0.6158, "f1": 0.7457},
        "ScholarDblp": {"recall": 0.9581, "precision": 0.2184, "f1": 0.3453},
        "AmazonGP": {"recall": 0.7742, "precision": 0.0848, "f1": 0.1514},
        "ImdbTmdb": {"recall": 0.8345, "precision": 0.4132, "f1": 0.5247},
        "ImdbTvdb": {"recall": 0.7641, "precision": 0.1764, "f1": 0.2754},
        "TmdbTvdb": {"recall": 0.8677, "precision": 0.1484, "f1": 0.2363},
        "Movies": {"recall": 0.9347, "precision": 0.0291, "f1": 0.0564},
        "WalmartAmazon": {"recall": 0.2332, "precision": 0.0001, "f1": 0.0002},
    },
}


# -- runs and reports -----------------------------------------------------------------

def _paper_vs_measured(rows, measures: Sequence[str], title: str) -> str:
    """A table of ``paper_<m>`` / ``measured_<m>`` columns; each of ``rows`` is
    its key columns, the paper's values and an object with the measured ``<m>``s."""
    table = []
    for keys, paper, measured in rows:
        table.append(dict(keys))
        for measure in measures:
            table[-1][f"paper_{measure}"] = paper.get(measure, float("nan"))
            table[-1][f"measured_{measure}"] = getattr(measured, measure)
    return format_table(table, title=title)


def _parts(render: Callable[[Any, str], str], titles: Dict[str, str]):
    """The report of a ``{part: result}`` result: one table per part."""
    return lambda result: "\n\n".join(render(result[part], titles[part]) for part in result)


def _averages(figure: str, title: str, algorithms, feature_set, reference) -> Experiment:
    """Figures 5, 6 and 8: each algorithm's averages, beside the paper's."""
    title = f"Figure {figure} — {title}"
    paper_title = f"Figure {figure} — paper-reported averages (approximate)"
    return Experiment(
        title=title,
        config=_FAST,
        full_config=_FULL,
        run=lambda config, full: run_pruning_selection(config, algorithms, feature_set),
        report=lambda result: format_pruning_selection(result, title)
        + "\n\n"
        + format_measure_series(reference, title=paper_title),
        reads=_TRAINED,
        reference=reference,
    )


def _final_comparison(table: str, reference, measures: Sequence[str]) -> Experiment:
    """Tables 5 and 7: per-dataset rows, then the paper's beside them."""

    def report(result) -> str:
        rows = [
            (
                {"dataset": outcome.dataset, "algorithm": outcome.algorithm},
                reference.get(outcome.algorithm, {}).get(outcome.dataset, {}),
                outcome.report,
            )
            for outcome in result.outcomes
        ]
        comparison = _paper_vs_measured(rows, measures, f"{table} — paper vs measured")
        return format_final_comparison(result) + "\n\n" + comparison

    return Experiment(
        title=f"{table} — per-dataset comparison of the final algorithms",
        config=_FAST,
        full_config=_FULL,
        run=lambda config, full: run_final_comparison(table, config),
        report=report,
        # 50 labels, or the [21] baseline's proportional sample: no training size
        reads=_SWEEP,
        reference=reference,
    )


def _report_table2(rows) -> str:
    comparison = _paper_vs_measured(
        [({"dataset": row.dataset}, TABLE2.get(row.dataset, {}), row) for row in rows],
        ("recall", "precision"),
        "Table 2 — paper vs measured (input block collections)",
    )
    return format_block_quality(rows) + "\n\n" + comparison


def _report_feature_selection(result) -> str:
    algorithm = result.algorithm
    paper = TABLES3_4[algorithm]
    return (
        f"TABLE{3 if algorithm == 'BLAST' else 4} — top-10 feature sets for {algorithm}\n"
        f"(paper averages over 9 datasets: recall={paper['recall']:.3f} "
        f"precision={paper['precision']:.3f} f1={paper['f1']:.3f})\n"
        + format_feature_selection(result)
    )


def _run_feature_runtime(config: ExperimentConfig, full: bool):
    """Figures 7 and 9 on the configured datasets (four sets each unless
    ``full``), then two sets of each on the first dataset: LCP's cost.

    The union of the sets is measured once per dataset; the LCP comparison
    reads its rows from what the two figures measured."""
    blast = BLAST_TOP10 if full else BLAST_TOP10[:4]
    rcnp = RCNP_TOP10 if full else RCNP_TOP10[:4]
    rows = run_feature_runtime(blast + rcnp, config, config.dataset_names)

    def measured(feature_sets, datasets=config.dataset_names):
        return [row for row in rows if row.feature_set in feature_sets and row.dataset in datasets]

    first = config.dataset_names[:1]
    return {
        "fig7": measured(blast),
        "fig9": measured(rcnp),
        "lcp": measured(BLAST_TOP10[:2], first) + measured(RCNP_TOP10[:2], first),
    }


#: experiment id (``repro run <id>``) -> its entry, in the paper's order
EXPERIMENTS: Dict[str, Experiment] = {
    "table2": Experiment(
        title="Tables 1 & 2 — dataset characteristics and input block quality",
        config=_FAST,
        full_config=_FULL,
        run=lambda config, full: run_block_quality(config.dataset_names, seed=config.seed),
        report=_report_table2,
        reads=("dataset_names", "seed"),
        reference=TABLE2,
    ),
    "fig5": _averages(
        "5", "weight-based pruning algorithms", WEIGHT_BASED_ALGORITHMS, ORIGINAL, FIGURE5
    ),
    "fig6": _averages(
        "6", "cardinality-based pruning algorithms", CARDINALITY_BASED_ALGORITHMS, ORIGINAL,
        FIGURE6,
    ),
    "tables3-4": Experiment(
        title="Tables 3 & 4 — feature-set selection for BLAST and RCNP",
        config=replace(_SMALL, max_set_size=3),
        full_config=_SMALL,
        run=lambda config, full: run_feature_selection(("BLAST", "RCNP"), config),
        report=lambda results: "\n\n".join(map(_report_feature_selection, results.values())),
        reads=_TRAINED + ("max_set_size",),
        reference=TABLES3_4,
    ),
    "fig7-9": Experiment(
        title="Figures 7 & 9 — run-time of the top-10 feature sets",
        config=_LARGEST,
        run=_run_feature_runtime,
        report=_parts(
            format_feature_runtime,
            {
                "fig7": "Figure 7 — run-time of BLAST's top feature sets",
                "fig9": "Figure 9 — run-time of RCNP's top feature sets",
                "lcp": "Figures 7 vs 9 — LCP-free vs LCP-bearing feature sets",
            },
        ),
        # one timed run per feature set and dataset
        reads=("dataset_names", "training_size", "seed"),
    ),
    # each algorithm with its standard feature set (Formulas 1 / 2, the [21] set)
    "fig8": _averages(
        "8", "Supervised (BCl, CNP) vs Generalized Supervised (BLAST, RCNP)",
        COMPARED_ALGORITHMS, None, FIGURE8,
    ),
    "fig10": Experiment(
        title="Figure 10 — run-time of the best algorithms on the largest datasets",
        config=_LARGEST,
        run=lambda config, full: run_figure10(config, dataset_names=config.dataset_names),
        report=format_figure10,
        reads=_TRAINED,
    ),
    "fig11-14": Experiment(
        title="Figures 11 & 14 — training-set size sweeps of BLAST and RCNP",
        config=_SMALL,
        run=lambda config, full: run_training_size_sweep(
            ("BLAST", "RCNP"), config, PAPER_TRAINING_SIZES if full else FAST_TRAINING_SIZES
        ),
        report=_parts(
            format_training_size,
            {
                "BLAST": "Figure 11 — training-set size sweep for BLAST",
                "RCNP": "Figure 14 — training-set size sweep for RCNP",
            },
        ),
        reads=_SWEEP,
    ),
    "fig12": Experiment(
        title="Figure 12 — matching-probability distributions vs training size",
        config=replace(_SMALL, dataset_names=("AbtBuy",)),
        run=lambda config, full: run_probability_density(
            config.dataset_names[0],
            (20, 50, 100, 200, 350, 500) if full else (50, 200, 500),
            config,
        ),
        report=format_probability_density,
        # one run per training size, on the first dataset
        reads=("dataset_names", "seed"),
    ),
    # BCl1: BCl with BLAST's features
    "fig13": Experiment(
        title="Figure 13 — BCl vs BLAST as the training set grows",
        config=_SMALL,
        run=lambda config, full: run_training_size_sweep(
            ("BCl", "BLAST"), config, (50, 200, 500), feature_set=BLAST_FEATURE_SET
        ),
        report=_parts(
            format_training_size, {"BCl": "Figure 13 — BCl", "BLAST": "Figure 13 — BLAST"}
        ),
        reads=_SWEEP,
    ),
    "table5": _final_comparison("Table 5", TABLE5, ("recall", "f1")),
    "table6": Experiment(
        title="Table 6 — BLAST's logistic-regression models on D100K",
        config=ExperimentConfig(repetitions=1, seed=0),
        run=lambda config, full: run_table6(
            "D100K", iterations=3, config=config, scale=None if full else 0.01
        ),
        report=format_table6,
        # three 50-label fits on D100K
        reads=("seed",),
    ),
    "table7": _final_comparison("Table 7", TABLE7, ("precision", "f1")),
    "fig15-16": Experiment(
        title="Figures 15 & 16 — common-block distributions of the duplicates",
        config=_FAST,
        full_config=_FULL,
        run=lambda config, full: run_common_block_distribution(
            tuple(config.dataset_names), config
        ),
        report=lambda distributions: format_common_blocks(
            distributions, "Figures 15/16 — duplicates per number of common blocks"
        ),
        reads=("dataset_names", "seed"),
    ),
    "fig17-18": Experiment(
        title="Figures 17 & 18 — scalability over the Dirty ER datasets",
        config=ExperimentConfig(repetitions=1, seed=0),
        full_config=ExperimentConfig(repetitions=3, seed=0),
        run=lambda config, full: run_scalability(
            config,
            dataset_names=DIRTY_ORDER if full else DIRTY_ORDER[:3],
            scale=None if full else 0.02,
        ),
        report=lambda result: format_scalability(result) + "\n\n" + format_speedups(result),
        # the Dirty ER series, with 50 labels or the [21] baseline's sample
        reads=("repetitions", "seed"),
    ),
}
