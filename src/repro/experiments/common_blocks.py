"""Experiment E11 — Figures 15 and 16 (common-block distribution of duplicates).

For every dataset, plots (as a table of series) the portion of ground-truth
duplicate pairs that share exactly ``x`` blocks in the prepared block
collection.  The bar at ``x = 0`` is the portion of duplicates missed by
blocking; the bar at ``x = 1`` is the portion that (Generalized) Supervised
Meta-blocking is most likely to lose, which is why datasets with a heavy
``x = 1`` bar (Figure 16) end up with recall below 0.9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..evaluation.reporting import format_table
from ..weights.sparse import compute_pair_cooccurrence
from .common import ExperimentConfig, prepare_dataset


@dataclass
class CommonBlockDistribution:
    """Distribution of shared-block counts over the duplicate pairs of one dataset."""

    dataset: str
    #: portion (in [0, 1]) of duplicate pairs per number of common blocks
    portions: Dict[int, float]

    def portion_at(self, common_blocks: int) -> float:
        """Portion of duplicates sharing exactly ``common_blocks`` blocks."""
        return self.portions.get(common_blocks, 0.0)

    @property
    def single_block_portion(self) -> float:
        """Portion of duplicates sharing exactly one block (recall bottleneck)."""
        return self.portion_at(1)

    @property
    def missed_portion(self) -> float:
        """Portion of duplicates sharing no block at all (blocking misses)."""
        return self.portion_at(0)

    def rows(self) -> List[Dict[str, float]]:
        """Rows of (common blocks, portion) pairs for rendering."""
        return [
            {"dataset": self.dataset, "common_blocks": key, "portion": value}
            for key, value in sorted(self.portions.items())
        ]


def run_common_block_distribution(
    dataset_names: Sequence[str],
    config: Optional[ExperimentConfig] = None,
) -> List[CommonBlockDistribution]:
    """Compute the Figure 15/16 distributions for the given datasets."""
    config = config or ExperimentConfig()
    distributions: List[CommonBlockDistribution] = []
    for name in dataset_names:
        dataset = prepare_dataset(name, seed=config.seed)
        stats = dataset.prepared.statistics()
        duplicates = np.array(list(dataset.ground_truth), dtype=np.int64).reshape(-1, 2)
        shared = compute_pair_cooccurrence(
            stats.csr(),
            stats.inverse_block_cardinalities,
            stats.inverse_block_sizes,
            duplicates[:, 0],
            duplicates[:, 1],
            stats.sides,
        ).common
        total = len(duplicates)
        portions = {
            blocks: int(count) / total
            for blocks, count in enumerate(np.bincount(shared.astype(np.int64)))
            if count
        }
        distributions.append(CommonBlockDistribution(dataset=name, portions=portions))
    return distributions


def format_common_blocks(distributions: Sequence[CommonBlockDistribution], title: str) -> str:
    """Render the distributions (the data behind Figures 15/16)."""
    rows: List[Dict[str, float]] = []
    for distribution in distributions:
        rows.extend(distribution.rows())
    return format_table(
        rows, columns=["dataset", "common_blocks", "portion"], title=title
    )


def low_redundancy_explains_low_recall(
    distributions: Sequence[CommonBlockDistribution],
    high_recall_names: Sequence[str],
    threshold: float = 0.10,
) -> bool:
    """Check the paper's explanation of the recall split (Section 5.4.2).

    Datasets whose duplicates rarely share a single block (portion below
    ``threshold``) should be exactly the high-recall datasets; the noisy
    datasets should exceed the threshold.
    """
    high_recall = set(high_recall_names)
    for distribution in distributions:
        low_redundancy = distribution.single_block_portion + distribution.missed_portion
        if distribution.dataset in high_recall and low_redundancy > 2 * threshold:
            return False
        if distribution.dataset not in high_recall and low_redundancy < threshold / 2:
            return False
    return True
