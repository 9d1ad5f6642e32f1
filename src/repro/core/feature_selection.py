"""The feature-set combinations of the exhaustive selection (paper Section 5.3).

The paper evaluates all 255 non-empty combinations of the eight weighting
schemes for the top-performing pruning algorithms (BLAST and RCNP), ranks
them by average F1 over the datasets and breaks ties by run-time.
:func:`enumerate_feature_sets` names those combinations; the sweep itself
runs each one through :class:`~repro.evaluation.ExperimentRunner`
(:func:`repro.experiments.run_feature_selection`).

Note on ids: the paper numbers the combinations 1–255 but does not publish
the enumeration order; our ids enumerate subsets by increasing size and
lexicographic order over the canonical feature order (CF-IBF, RACCB, JS,
LCP, EJS, WJS, RS, NRS), so id values differ from the paper while the sets
themselves are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..weights.registry import PAPER_FEATURES, all_feature_subsets


@dataclass(frozen=True)
class FeatureSetCandidate:
    """One feature combination with its stable identifier."""

    set_id: int
    features: Tuple[str, ...]

    def label(self) -> str:
        """Human-readable label, e.g. ``"{CF-IBF, RACCB, RS, NRS}"``."""
        return "{" + ", ".join(self.features) + "}"


def enumerate_feature_sets(
    features: Sequence[str] = PAPER_FEATURES,
) -> List[FeatureSetCandidate]:
    """Enumerate every non-empty combination of ``features`` with stable ids."""
    return [
        FeatureSetCandidate(set_id=index + 1, features=subset)
        for index, subset in enumerate(all_feature_subsets(features))
    ]
