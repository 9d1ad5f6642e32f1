"""Experiment E1 — Table 1 (dataset characteristics) and Table 2 (block quality).

Regenerates, for every benchmark dataset, the size statistics of Table 1 and
the recall / precision / F1 of the input block collections of Table 2 (Token
Blocking followed by Block Purging and Block Filtering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..datasets.registry import CLEAN_CLEAN_ORDER
from ..evaluation.metrics import evaluate_candidates
from ..evaluation.reporting import format_table
from ..utils.rng import SeedLike
from .common import prepare_dataset


@dataclass
class BlockQualityRow:
    """One dataset's row across Tables 1 and 2."""

    dataset: str
    entities_first: int
    entities_second: int
    duplicates: int
    candidates: int
    recall: float
    precision: float
    f1: float

    def as_row(self) -> Dict[str, float]:
        """Flatten for table rendering."""
        return {
            "dataset": self.dataset,
            "|E1|": self.entities_first,
            "|E2|": self.entities_second,
            "|D|": self.duplicates,
            "|C|": self.candidates,
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
        }


def run_block_quality(
    dataset_names: Sequence[str] = CLEAN_CLEAN_ORDER,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> List[BlockQualityRow]:
    """Compute Table 1 + Table 2 rows for the given benchmarks."""
    rows: List[BlockQualityRow] = []
    for name in dataset_names:
        dataset = prepare_dataset(name, seed=seed, scale=scale)
        prepared = dataset.prepared
        report = evaluate_candidates(prepared.candidates, dataset.ground_truth)
        rows.append(
            BlockQualityRow(
                dataset=name,
                entities_first=prepared.blocks.index_space.size_first,
                entities_second=prepared.blocks.index_space.size_second,
                duplicates=len(dataset.ground_truth),
                candidates=len(prepared.candidates),
                recall=report.recall,
                precision=report.precision,
                f1=report.f1,
            )
        )
    return rows


def format_block_quality(rows: Sequence[BlockQualityRow]) -> str:
    """Render the rows in the layout of Tables 1 and 2."""
    return format_table(
        [row.as_row() for row in rows],
        columns=["dataset", "|E1|", "|E2|", "|D|", "|C|", "recall", "precision", "f1"],
        title="Tables 1 & 2 — input block collections (generated benchmarks)",
    )
