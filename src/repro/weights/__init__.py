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

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BLAST_FEATURE_SET": "registry",
    "BlockStatistics": "statistics",
    "CFIBFScheme": "schemes",
    "CommonBlocksScheme": "schemes",
    "EnhancedJaccardScheme": "schemes",
    "EntityBlockCSR": "sparse",
    "JaccardScheme": "schemes",
    "LocalCandidatesScheme": "schemes",
    "NormalizedReciprocalSizesScheme": "schemes",
    "ORIGINAL_FEATURE_SET": "registry",
    "PAPER_FEATURES": "registry",
    "PairCooccurrence": "sparse",
    "RACCBScheme": "schemes",
    "RCNP_FEATURE_SET": "registry",
    "ReciprocalSizesScheme": "schemes",
    "SCHEME_CLASSES": "registry",
    "WeightedJaccardScheme": "schemes",
    "WeightingScheme": "schemes",
    "all_feature_subsets": "registry",
    "build_entity_block_csr": "sparse",
    "compute_pair_cooccurrence": "sparse",
    "feature_width": "registry",
    "get_scheme": "registry",
    "get_schemes": "registry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
