"""Generalized Supervised Meta-blocking — a full Python reproduction.

This package reimplements the system of *Generalized Supervised
Meta-blocking* (Gagliardelli, Papadakis, Simonini, Bergamaschi, Palpanas —
PVLDB 2022) from the ground up:

* a schema-agnostic Entity Resolution data model and blocking substrates
  (:mod:`repro.datamodel`, :mod:`repro.blocking`);
* the block co-occurrence weighting schemes used as features
  (:mod:`repro.weights`);
* from-scratch probabilistic classifiers (:mod:`repro.ml`);
* the pruning algorithms and the end-to-end pipeline — the paper's
  contribution (:mod:`repro.core`); each algorithm's ``retain`` applies its
  criterion to a weighting scheme's values on every pair, which is the
  unsupervised meta-blocking baseline;
* an incremental streaming execution mode — online entity insertion against
  a frozen batch-trained classifier (:mod:`repro.incremental`);
* dataset substrates mirroring the paper's benchmarks (:mod:`repro.datasets`);
* evaluation and experiment harnesses regenerating every table and figure
  (:mod:`repro.evaluation`, :mod:`repro.experiments`).

Quickstart
----------
>>> from repro import (
...     load_benchmark, prepare_blocks, GeneralizedSupervisedMetaBlocking, evaluate_result,
... )
>>> dataset = load_benchmark("DblpAcm", seed=7)
>>> prepared = prepare_blocks(dataset.first, dataset.second)
>>> pipeline = GeneralizedSupervisedMetaBlocking(pruning="BLAST", training_size=50)
>>> result = pipeline.run(
...     prepared.blocks, prepared.candidates, dataset.ground_truth,
...     stats=prepared.statistics(),
... )
>>> report = evaluate_result(result, dataset.ground_truth)
>>> 0.0 <= report.f1 <= 1.0
True
"""

from ._exports import lazy_exports

__version__ = "1.14.0"

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "BLAST_FEATURE_SET": "weights",
    "BinaryClassifierPruning": "core",
    "BlockStatistics": "weights",
    "CandidateSet": "datamodel",
    "DeltaFeatureGenerator": "incremental",
    "EffectivenessReport": "evaluation",
    "EntityCollection": "datamodel",
    "EntityIndexSpace": "datamodel",
    "EntityProfile": "datamodel",
    "FeatureVectorGenerator": "core",
    "FrozenModel": "incremental",
    "GaussianNB": "ml",
    "GeneralizedSupervisedMetaBlocking": "core",
    "GroundTruth": "datamodel",
    "LinearSVC": "ml",
    "LogisticRegression": "ml",
    "MatchingSession": "incremental",
    "MetaBlockingResult": "core",
    "MutableBlockIndex": "incremental",
    "ORIGINAL_FEATURE_SET": "weights",
    "PAPER_FEATURES": "weights",
    "RCNP_FEATURE_SET": "weights",
    "SupervisedBLAST": "core",
    "SupervisedCEP": "core",
    "SupervisedCNP": "core",
    "SupervisedRCNP": "core",
    "SupervisedRWNP": "core",
    "SupervisedWEP": "core",
    "SupervisedWNP": "core",
    "evaluate_candidates": "evaluation",
    "evaluate_result": "evaluation",
    "evaluate_retained_mask": "evaluation",
    "get_pruning_algorithm": "core",
    "load_benchmark": "datasets",
    "load_dirty_dataset": "datasets",
    "prepare_blocks": "blocking",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
