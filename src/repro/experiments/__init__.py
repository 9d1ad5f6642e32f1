"""Experiment modules — one per table/figure of the paper's evaluation.

| Module | Paper artefact |
|---|---|
| :mod:`block_quality` | Tables 1 & 2 |
| :mod:`pruning_selection` | Figures 5 & 6 |
| :mod:`feature_selection` | Tables 3 & 4 |
| :mod:`feature_runtime` | Figures 7 & 9 |
| :mod:`algorithm_comparison` | Figures 8 & 10 |
| :mod:`training_size` | Figures 11, 13 & 14 |
| :mod:`probability_density` | Figure 12 |
| :mod:`final_comparison` | Tables 5 & 7 |
| :mod:`common_blocks` | Figures 15 & 16 |
| :mod:`scalability` | Figures 17 & 18, Table 6 |
"""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "algorithm_pipeline": "common",
    "AlgorithmComparisonResult": "algorithm_comparison",
    "bcl_pipeline": "common",
    "blast_pipeline": "common",
    "BLAST_TOP10": "feature_runtime",
    "BlockQualityRow": "block_quality",
    "cnp_pipeline": "common",
    "CommonBlockDistribution": "common_blocks",
    "ExperimentConfig": "common",
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
    "format_figure8": "algorithm_comparison",
    "format_final_comparison": "final_comparison",
    "format_probability_density": "probability_density",
    "format_pruning_selection": "pruning_selection",
    "format_scalability": "scalability",
    "format_speedups": "scalability",
    "format_table6": "scalability",
    "format_training_size": "training_size",
    "lcp_free_sets_are_faster": "feature_runtime",
    "low_redundancy_explains_low_recall": "common_blocks",
    "paper_figure5_reference": "pruning_selection",
    "paper_figure6_reference": "pruning_selection",
    "paper_figure8_reference": "algorithm_comparison",
    "paper_table2_reference": "block_quality",
    "paper_table3_reference": "feature_selection",
    "paper_table4_reference": "feature_selection",
    "paper_table5_reference": "final_comparison",
    "paper_table7_reference": "final_comparison",
    "PAPER_TRAINING_SIZES": "training_size",
    "prepare_benchmark_dataset": "common",
    "prepare_benchmark_datasets": "common",
    "prepare_dirty_dataset": "common",
    "prepare_dirty_datasets": "common",
    "probabilities_shift_upwards": "probability_density",
    "ProbabilityDensitySnapshot": "probability_density",
    "PruningSelectionResult": "pruning_selection",
    "rcnp_pipeline": "common",
    "RCNP_TOP10": "feature_runtime",
    "run_block_quality": "block_quality",
    "run_common_block_distribution": "common_blocks",
    "run_feature_runtime": "feature_runtime",
    "run_feature_selection": "feature_selection",
    "run_figure10": "algorithm_comparison",
    "run_figure11": "training_size",
    "run_figure13": "training_size",
    "run_figure5": "pruning_selection",
    "run_figure6": "pruning_selection",
    "run_figure8": "algorithm_comparison",
    "run_probability_density": "probability_density",
    "run_pruning_selection": "pruning_selection",
    "run_scalability": "scalability",
    "run_table3": "feature_selection",
    "run_table5": "final_comparison",
    "run_table6": "scalability",
    "run_table7": "final_comparison",
    "run_training_size_sweep": "training_size",
    "ScalabilityResult": "scalability",
    "small_training_set_suffices": "training_size",
    "TrainingSizePoint": "training_size",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
