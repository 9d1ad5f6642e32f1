"""Generalized Supervised Meta-blocking: features, training, pruning, pipeline."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BinaryClassifierPruning": "pruning",
    "BlockTotals": "pruning",
    "CARDINALITY_BASED_ALGORITHMS": "pruning",
    "FeatureMatrix": "features",
    "FeatureSetCandidate": "feature_selection",
    "FeatureVectorGenerator": "features",
    "GeneralizedSupervisedMetaBlocking": "pipeline",
    "MetaBlockingResult": "pipeline",
    "PRUNING_ALGORITHMS": "pruning",
    "SupervisedBLAST": "pruning",
    "SupervisedCEP": "pruning",
    "SupervisedCNP": "pruning",
    "SupervisedPruningAlgorithm": "pruning",
    "SupervisedRCNP": "pruning",
    "SupervisedRWNP": "pruning",
    "SupervisedWEP": "pruning",
    "SupervisedWNP": "pruning",
    "TrainingSet": "training",
    "VALIDITY_THRESHOLD": "pruning",
    "WEIGHT_BASED_ALGORITHMS": "pruning",
    "build_training_set": "training",
    "cep_budget": "pruning",
    "cnp_budget": "pruning",
    "enumerate_feature_sets": "feature_selection",
    "get_pruning_algorithm": "pruning",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
