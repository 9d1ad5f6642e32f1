"""Evaluation: effectiveness metrics, multi-run execution, report formatting."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "EffectivenessReport": "metrics",
    "ExperimentRunner": "runner",
    "RunOutcome": "runner",
    "average_over_datasets": "runner",
    "average_reports": "metrics",
    "evaluate_blocks": "metrics",
    "evaluate_candidates": "metrics",
    "evaluate_result": "metrics",
    "evaluate_retained_mask": "metrics",
    "format_measure_series": "reporting",
    "format_table": "reporting",
    "format_value": "reporting",
    "paper_vs_measured": "reporting",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
