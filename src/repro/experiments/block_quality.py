"""Experiment E1 — Table 1 (dataset characteristics) and Table 2 (block quality).

Regenerates, for every benchmark dataset, the size statistics of Table 1 and
the recall / precision / F1 of the input block collections of Table 2 (Token
Blocking followed by Block Purging and Block Filtering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..blocking.candidate_extraction import prepare_blocks
from ..datasets.benchmarks import load_benchmark
from ..datasets.registry import CLEAN_CLEAN_ORDER, get_profile
from ..evaluation.metrics import evaluate_candidates
from ..evaluation.reporting import format_table
from ..utils.rng import SeedLike


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
        dataset = load_benchmark(name, seed=seed, scale=scale)
        prepared = prepare_blocks(dataset.first, dataset.second)
        report = evaluate_candidates(prepared.candidates, dataset.ground_truth)
        rows.append(
            BlockQualityRow(
                dataset=name,
                entities_first=len(dataset.first),
                entities_second=len(dataset.second),
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


def paper_table2_reference() -> Dict[str, Dict[str, float]]:
    """The paper's Table 2 values, for paper-vs-measured reports."""
    return {
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
