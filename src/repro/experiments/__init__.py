"""Experiment modules — the runs behind the tables/figures of the paper's evaluation.

Each module's docstring names its figures / tables; :mod:`registry` names
each figure / table once (:data:`EXPERIMENTS`): what ``repro run <id>``, the
paper benches and the examples run and report.
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "algorithm_pipeline": "common",
    "BLAST_TOP10": "feature_runtime",
    "BlockQualityRow": "block_quality",
    "CommonBlockDistribution": "common_blocks",
    "Experiment": "registry",
    "ExperimentConfig": "common",
    "EXPERIMENTS": "registry",
    "FAST_DATASET_SUBSET": "common",
    "FAST_TRAINING_SIZES": "training_size",
    "FeatureRuntimeRow": "feature_runtime",
    "FeatureSelectionResult": "feature_selection",
    "FinalComparisonResult": "final_comparison",
    "FittedModelSnapshot": "scalability",
    "format_block_quality": "block_quality",
    "format_common_blocks": "common_blocks",
    "format_feature_runtime": "feature_runtime",
    "format_feature_selection": "feature_selection",
    "format_figure10": "algorithm_comparison",
    "format_final_comparison": "final_comparison",
    "format_probability_density": "probability_density",
    "format_pruning_selection": "pruning_selection",
    "format_scalability": "scalability",
    "format_speedups": "scalability",
    "format_table6": "scalability",
    "format_training_size": "training_size",
    "lcp_free_sets_are_faster": "feature_runtime",
    "low_redundancy_explains_low_recall": "common_blocks",
    "PAPER_TRAINING_SIZES": "training_size",
    "prepare_dataset": "common",
    "probabilities_shift_upwards": "probability_density",
    "ProbabilityDensitySnapshot": "probability_density",
    "PruningSelectionResult": "pruning_selection",
    "RCNP_TOP10": "feature_runtime",
    "run_block_quality": "block_quality",
    "run_common_block_distribution": "common_blocks",
    "run_feature_runtime": "feature_runtime",
    "run_feature_selection": "feature_selection",
    "run_final_comparison": "final_comparison",
    "run_figure10": "algorithm_comparison",
    "run_probability_density": "probability_density",
    "run_pruning_selection": "pruning_selection",
    "run_scalability": "scalability",
    "run_table6": "scalability",
    "run_training_size_sweep": "training_size",
    "ScalabilityResult": "scalability",
    "small_training_set_suffices": "training_size",
    "TrainingSizePoint": "training_size",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
