"""Supervised pruning algorithms of Generalized Supervised Meta-blocking."""

from typing import Dict, List, Type

from .base import BlockTotals, SupervisedPruningAlgorithm, VALIDITY_THRESHOLD
from .cardinality_based import (
    SupervisedCEP,
    SupervisedCNP,
    SupervisedRCNP,
    cep_budget,
    cnp_budget,
)
from .kernels import strength_order
from .weight_based import (
    BinaryClassifierPruning,
    SupervisedBLAST,
    SupervisedRWNP,
    SupervisedWEP,
    SupervisedWNP,
)

#: All pruning algorithms keyed by their paper names.
PRUNING_ALGORITHMS: Dict[str, Type[SupervisedPruningAlgorithm]] = {
    "BCl": BinaryClassifierPruning,
    "WEP": SupervisedWEP,
    "WNP": SupervisedWNP,
    "RWNP": SupervisedRWNP,
    "BLAST": SupervisedBLAST,
    "CEP": SupervisedCEP,
    "CNP": SupervisedCNP,
    "RCNP": SupervisedRCNP,
}

#: The weight-based algorithms of Figure 5 (plus the BCl baseline).
WEIGHT_BASED_ALGORITHMS: List[str] = ["BCl", "WEP", "WNP", "RWNP", "BLAST"]

#: The cardinality-based algorithms of Figure 6.
CARDINALITY_BASED_ALGORITHMS: List[str] = ["CEP", "CNP", "RCNP"]


def get_pruning_algorithm(name: str, **kwargs) -> SupervisedPruningAlgorithm:
    """Instantiate a pruning algorithm by its paper name."""
    try:
        algorithm_class = PRUNING_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(PRUNING_ALGORITHMS))
        raise KeyError(
            f"unknown pruning algorithm {name!r}; known algorithms: {known}"
        ) from None
    return algorithm_class(**kwargs)


__all__ = [
    "BinaryClassifierPruning",
    "BlockTotals",
    "CARDINALITY_BASED_ALGORITHMS",
    "PRUNING_ALGORITHMS",
    "SupervisedBLAST",
    "SupervisedCEP",
    "SupervisedCNP",
    "SupervisedPruningAlgorithm",
    "SupervisedRCNP",
    "SupervisedRWNP",
    "SupervisedWEP",
    "SupervisedWNP",
    "VALIDITY_THRESHOLD",
    "WEIGHT_BASED_ALGORITHMS",
    "cep_budget",
    "cnp_budget",
    "get_pruning_algorithm",
    "strength_order",
]
