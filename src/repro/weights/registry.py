"""Registry of weighting schemes and the paper's named feature sets.

Schemes are referenced by their short names (``"CF-IBF"``, ``"RACCB"``, ...)
throughout the experiment configuration, mirroring the paper's notation.  The
registry also exposes the three feature sets the paper singles out:

* ``ORIGINAL_FEATURE_SET`` — the optimal set of Supervised Meta-blocking [21]:
  {CF-IBF, RACCB, JS, LCP};
* ``BLAST_FEATURE_SET`` — Formula 1: {CF-IBF, RACCB, RS, NRS} (feature set 78);
* ``RCNP_FEATURE_SET`` — Formula 2: {CF-IBF, RACCB, JS, LCP, WJS} (set 187).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple, Type

from .schemes import (
    CFIBFScheme,
    CommonBlocksScheme,
    EnhancedJaccardScheme,
    JaccardScheme,
    LocalCandidatesScheme,
    NormalizedReciprocalSizesScheme,
    RACCBScheme,
    ReciprocalSizesScheme,
    WeightedJaccardScheme,
    WeightingScheme,
)

#: All schemes known to the library, keyed by their short name.
SCHEME_CLASSES: Dict[str, Type[WeightingScheme]] = {
    "CBS": CommonBlocksScheme,
    "CF-IBF": CFIBFScheme,
    "RACCB": RACCBScheme,
    "JS": JaccardScheme,
    "EJS": EnhancedJaccardScheme,
    "WJS": WeightedJaccardScheme,
    "RS": ReciprocalSizesScheme,
    "NRS": NormalizedReciprocalSizesScheme,
    "LCP": LocalCandidatesScheme,
}

#: The eight features considered in the paper's exhaustive selection
#: (Section 5.3): the four of [21] plus the four new schemes.
PAPER_FEATURES: Tuple[str, ...] = (
    "CF-IBF",
    "RACCB",
    "JS",
    "LCP",
    "EJS",
    "WJS",
    "RS",
    "NRS",
)

#: Optimal feature set of Supervised Meta-blocking [21].
ORIGINAL_FEATURE_SET: Tuple[str, ...] = ("CF-IBF", "RACCB", "JS", "LCP")

#: Formula 1 — the feature set selected for BLAST (set id 78 in Table 3).
BLAST_FEATURE_SET: Tuple[str, ...] = ("CF-IBF", "RACCB", "RS", "NRS")

#: Formula 2 — the feature set selected for RCNP (set id 187 in Table 4).
RCNP_FEATURE_SET: Tuple[str, ...] = ("CF-IBF", "RACCB", "JS", "LCP", "WJS")


def get_scheme(name: str) -> WeightingScheme:
    """Instantiate the scheme registered under ``name``.

    Raises
    ------
    KeyError
        With the list of known schemes when the name is unknown.
    """
    try:
        return SCHEME_CLASSES[name]()
    except KeyError:
        known = ", ".join(sorted(SCHEME_CLASSES))
        raise KeyError(f"unknown weighting scheme {name!r}; known schemes: {known}") from None


def get_schemes(names: Sequence[str]) -> List[WeightingScheme]:
    """Instantiate several schemes, preserving order and rejecting duplicates."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scheme names in {names!r}")
    return [get_scheme(name) for name in names]


def all_feature_subsets(
    features: Sequence[str] = PAPER_FEATURES, min_size: int = 1
) -> List[Tuple[str, ...]]:
    """Enumerate every non-empty subset of ``features`` (255 for 8 features).

    Subsets are ordered by size and lexicographically within a size, matching
    the exhaustive search of Section 5.3.
    """
    if min_size < 1:
        raise ValueError("min_size must be at least 1")
    subsets: List[Tuple[str, ...]] = []
    for size in range(min_size, len(features) + 1):
        subsets.extend(combinations(features, size))
    return subsets
