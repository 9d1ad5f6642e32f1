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

from .algorithm_comparison import (
    AlgorithmComparisonResult,
    format_figure8,
    format_figure10,
    paper_figure8_reference,
    run_figure8,
    run_figure10,
)
from .block_quality import (
    BlockQualityRow,
    format_block_quality,
    paper_table2_reference,
    run_block_quality,
)
from .common import (
    ExperimentConfig,
    FAST_DATASET_SUBSET,
    algorithm_pipeline,
    bcl_pipeline,
    blast_pipeline,
    cnp_pipeline,
    prepare_benchmark_dataset,
    prepare_benchmark_datasets,
    prepare_dirty_dataset,
    prepare_dirty_datasets,
    rcnp_pipeline,
)
from .common_blocks import (
    CommonBlockDistribution,
    format_common_blocks,
    low_redundancy_explains_low_recall,
    run_common_block_distribution,
)
from .feature_runtime import (
    BLAST_TOP10,
    FeatureRuntimeRow,
    RCNP_TOP10,
    format_feature_runtime,
    lcp_free_sets_are_faster,
    run_feature_runtime,
    run_figure7,
    run_figure9,
)
from .feature_selection import (
    FeatureSelectionResult,
    format_feature_selection,
    paper_table3_reference,
    paper_table4_reference,
    run_feature_selection,
    run_table3,
    run_table4,
)
from .final_comparison import (
    FinalComparisonResult,
    format_final_comparison,
    paper_table5_reference,
    paper_table7_reference,
    run_table5,
    run_table7,
)
from .probability_density import (
    ProbabilityDensitySnapshot,
    format_probability_density,
    probabilities_shift_upwards,
    run_probability_density,
)
from .pruning_selection import (
    PruningSelectionResult,
    format_pruning_selection,
    paper_figure5_reference,
    paper_figure6_reference,
    run_figure5,
    run_figure6,
    run_pruning_selection,
)
from .scalability import (
    FittedModelSnapshot,
    ScalabilityResult,
    format_scalability,
    format_speedups,
    format_table6,
    run_scalability,
    run_table6,
)
from .training_size import (
    FAST_TRAINING_SIZES,
    PAPER_TRAINING_SIZES,
    TrainingSizePoint,
    format_training_size,
    run_figure11,
    run_figure13,
    run_figure14,
    run_training_size_sweep,
    small_training_set_suffices,
)

__all__ = [
    "AlgorithmComparisonResult",
    "BLAST_TOP10",
    "BlockQualityRow",
    "CommonBlockDistribution",
    "ExperimentConfig",
    "FAST_DATASET_SUBSET",
    "FAST_TRAINING_SIZES",
    "FeatureRuntimeRow",
    "FeatureSelectionResult",
    "FinalComparisonResult",
    "FittedModelSnapshot",
    "PAPER_TRAINING_SIZES",
    "ProbabilityDensitySnapshot",
    "PruningSelectionResult",
    "RCNP_TOP10",
    "ScalabilityResult",
    "TrainingSizePoint",
    "algorithm_pipeline",
    "bcl_pipeline",
    "blast_pipeline",
    "cnp_pipeline",
    "format_block_quality",
    "format_common_blocks",
    "format_feature_runtime",
    "format_feature_selection",
    "format_figure10",
    "format_figure8",
    "format_final_comparison",
    "format_probability_density",
    "format_pruning_selection",
    "format_scalability",
    "format_speedups",
    "format_table6",
    "format_training_size",
    "lcp_free_sets_are_faster",
    "low_redundancy_explains_low_recall",
    "paper_figure5_reference",
    "paper_figure8_reference",
    "paper_figure6_reference",
    "paper_table2_reference",
    "paper_table3_reference",
    "paper_table4_reference",
    "paper_table5_reference",
    "paper_table7_reference",
    "prepare_benchmark_dataset",
    "prepare_benchmark_datasets",
    "prepare_dirty_dataset",
    "prepare_dirty_datasets",
    "probabilities_shift_upwards",
    "rcnp_pipeline",
    "run_block_quality",
    "run_common_block_distribution",
    "run_feature_runtime",
    "run_feature_selection",
    "run_figure10",
    "run_figure11",
    "run_figure13",
    "run_figure14",
    "run_figure5",
    "run_figure6",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_pruning_selection",
    "run_scalability",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_training_size_sweep",
    "small_training_set_suffices",
]
