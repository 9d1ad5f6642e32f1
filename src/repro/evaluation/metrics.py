"""Effectiveness measures for block collections and pruned candidate sets.

The paper evaluates every method with three measures (Section 2.1):

* recall / Pairs Completeness (PC) — retained duplicates over all duplicates
  in the ground truth (duplicates already missed by blocking count against
  recall);
* precision / Pairs Quality (PQ) — retained duplicates over retained pairs;
* F1 — their harmonic mean.

The functions below operate on either a :class:`CandidateSet` (evaluating a
block collection's candidate pairs) or on a boolean retained-mask aligned with
per-pair ground-truth labels (evaluating a pruning result without rebuilding
pair sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..datamodel.candidates import CandidateSet
from ..datamodel.ground_truth import GroundTruth


@dataclass(frozen=True)
class EffectivenessReport:
    """Recall, precision and F1 plus the underlying counts."""

    recall: float
    precision: float
    f1: float
    true_positives: int
    retained_pairs: int
    total_duplicates: int

    def as_dict(self) -> Dict[str, float]:
        """Return the measures as a flat dictionary (for reports/tables)."""
        return {
            "recall": self.recall,
            "precision": self.precision,
            "f1": self.f1,
            "true_positives": float(self.true_positives),
            "retained_pairs": float(self.retained_pairs),
            "total_duplicates": float(self.total_duplicates),
        }


def _report(true_positives: int, retained_pairs: int, total_duplicates: int) -> EffectivenessReport:
    recall = true_positives / total_duplicates if total_duplicates else 0.0
    precision = true_positives / retained_pairs if retained_pairs else 0.0
    f1 = (
        2.0 * recall * precision / (recall + precision)
        if (recall + precision) > 0.0
        else 0.0
    )
    return EffectivenessReport(
        recall=recall,
        precision=precision,
        f1=f1,
        true_positives=true_positives,
        retained_pairs=retained_pairs,
        total_duplicates=total_duplicates,
    )


def evaluate_candidates(
    candidates: CandidateSet, ground_truth: GroundTruth
) -> EffectivenessReport:
    """Evaluate a candidate set (e.g. the output of blocking) against the truth."""
    true_positives = ground_truth.covered_by(candidates)
    return _report(true_positives, len(candidates), len(ground_truth))


def evaluate_retained_mask(
    retained_mask: np.ndarray,
    labels: np.ndarray,
    total_duplicates: int,
) -> EffectivenessReport:
    """Evaluate a pruning decision from its mask and per-pair labels.

    Parameters
    ----------
    retained_mask:
        Boolean array over the candidate pairs (True = retained).
    labels:
        Boolean array over the same pairs (True = matching).
    total_duplicates:
        ``|D|`` — all ground-truth duplicates, including those already missed
        by blocking, so recall is measured against the full ground truth as in
        the paper.
    """
    retained_mask = np.asarray(retained_mask).astype(bool)
    labels = np.asarray(labels).astype(bool)
    if retained_mask.shape != labels.shape:
        raise ValueError("retained_mask and labels must have the same shape")
    if total_duplicates < 0:
        raise ValueError("total_duplicates must be non-negative")
    true_positives = int(np.sum(retained_mask & labels))
    return _report(true_positives, int(retained_mask.sum()), total_duplicates)


def evaluate_result(result, ground_truth: GroundTruth) -> EffectivenessReport:
    """Evaluate a :class:`repro.core.pipeline.MetaBlockingResult`."""
    return evaluate_retained_mask(
        result.retained_mask, result.labels, len(ground_truth)
    )


def average_reports(reports) -> EffectivenessReport:
    """Average several reports measure-wise (the paper's multi-run averaging).

    Counts are averaged and rounded; recall/precision/F1 are averaged
    directly (not recomputed from the averaged counts), matching how the
    paper averages the measures over 10 repetitions.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("cannot average an empty list of reports")
    return EffectivenessReport(
        recall=float(np.mean([r.recall for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        f1=float(np.mean([r.f1 for r in reports])),
        true_positives=int(round(np.mean([r.true_positives for r in reports]))),
        retained_pairs=int(round(np.mean([r.retained_pairs for r in reports]))),
        total_duplicates=int(round(np.mean([r.total_duplicates for r in reports]))),
    )
