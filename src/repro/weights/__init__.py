"""Weighting schemes and block co-occurrence statistics.

Every weighting scheme has one formula (paper Section 4) and two
implementations of it.  ``WeightingScheme.compute_sparse`` is the one the
library runs (:mod:`repro.weights.sparse`): the block collection is flattened
once into an entity x block CSR incidence structure and the per-pair
co-occurrence aggregates of *all* candidate pairs are computed in batched
NumPy operations.  ``WeightingScheme.compute`` is the per-pair reference: a
readable Python loop intersecting per-entity frozensets of block ids that
mirrors the paper's formulas line by line.  Nothing selects it at run time;
``tests/weights/test_backend_equivalence.py`` and
``tests/weights/test_golden_features.py`` call it directly and guard
``np.allclose``-identical feature matrices for every registered scheme, so an
optimisation that shifts a score fails the suite.
"""

from .registry import (
    BLAST_FEATURE_SET,
    ORIGINAL_FEATURE_SET,
    PAPER_FEATURES,
    RCNP_FEATURE_SET,
    SCHEME_CLASSES,
    all_feature_subsets,
    feature_width,
    get_scheme,
    get_schemes,
)
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
from .sparse import (
    EntityBlockCSR,
    PairCooccurrence,
    build_entity_block_csr,
    compute_pair_cooccurrence,
)
from .statistics import BlockStatistics

__all__ = [
    "BLAST_FEATURE_SET",
    "BlockStatistics",
    "CFIBFScheme",
    "CommonBlocksScheme",
    "EnhancedJaccardScheme",
    "EntityBlockCSR",
    "JaccardScheme",
    "LocalCandidatesScheme",
    "NormalizedReciprocalSizesScheme",
    "ORIGINAL_FEATURE_SET",
    "PAPER_FEATURES",
    "PairCooccurrence",
    "RACCBScheme",
    "RCNP_FEATURE_SET",
    "ReciprocalSizesScheme",
    "SCHEME_CLASSES",
    "WeightedJaccardScheme",
    "WeightingScheme",
    "all_feature_subsets",
    "build_entity_block_csr",
    "compute_pair_cooccurrence",
    "feature_width",
    "get_scheme",
    "get_schemes",
]
