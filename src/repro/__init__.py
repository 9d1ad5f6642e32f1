"""Generalized Supervised Meta-blocking — a full Python reproduction.

This package reimplements the system of *Generalized Supervised
Meta-blocking* (Gagliardelli, Papadakis, Simonini, Bergamaschi, Palpanas —
PVLDB 2022) from the ground up:

* a schema-agnostic Entity Resolution data model and blocking substrates
  (:mod:`repro.datamodel`, :mod:`repro.blocking`);
* the block co-occurrence weighting schemes used as features
  (:mod:`repro.weights`);
* from-scratch probabilistic classifiers (:mod:`repro.ml`);
* the supervised pruning algorithms and the end-to-end pipeline — the paper's
  contribution (:mod:`repro.core`);
* unsupervised meta-blocking baselines (:mod:`repro.metablocking`);
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
>>> result = pipeline.run(prepared.blocks, prepared.candidates, dataset.ground_truth)
>>> report = evaluate_result(result, dataset.ground_truth)
>>> 0.0 <= report.f1 <= 1.0
True
"""

from .blocking import (
    QGramsBlocking,
    StandardBlocking,
    SuffixArraysBlocking,
    TokenBlocking,
    extract_candidates,
    filter_blocks,
    prepare_blocks,
    purge_oversized_blocks,
)
from .core import (
    BinaryClassifierPruning,
    FeatureVectorGenerator,
    GeneralizedSupervisedMetaBlocking,
    MetaBlockingResult,
    SupervisedBLAST,
    SupervisedCEP,
    SupervisedCNP,
    SupervisedRCNP,
    SupervisedRWNP,
    SupervisedWEP,
    SupervisedWNP,
    get_pruning_algorithm,
)
from .datamodel import (
    Block,
    BlockCollection,
    CandidatePair,
    CandidateSet,
    EntityCollection,
    EntityIndexSpace,
    EntityProfile,
    GroundTruth,
)
from .datasets import (
    load_all_benchmarks,
    load_all_dirty_datasets,
    load_benchmark,
    load_dirty_dataset,
)
from .evaluation import (
    EffectivenessReport,
    evaluate_blocks,
    evaluate_candidates,
    evaluate_result,
    evaluate_retained_mask,
)
from .incremental import (
    DeltaFeatureGenerator,
    FrozenModel,
    MatchingSession,
    MutableBlockIndex,
    ShardedMutableBlockIndex,
)
from .ml import GaussianNB, LinearSVC, LogisticRegression
from .parallel import ParallelExecutor, ShardPlanner, WorkerCrashError
from .weights import (
    BLAST_FEATURE_SET,
    BlockStatistics,
    ORIGINAL_FEATURE_SET,
    PAPER_FEATURES,
    RCNP_FEATURE_SET,
)

__version__ = "1.10.0"

__all__ = [
    "BLAST_FEATURE_SET",
    "BinaryClassifierPruning",
    "Block",
    "BlockCollection",
    "BlockStatistics",
    "CandidatePair",
    "CandidateSet",
    "DeltaFeatureGenerator",
    "EffectivenessReport",
    "EntityCollection",
    "EntityIndexSpace",
    "EntityProfile",
    "FeatureVectorGenerator",
    "FrozenModel",
    "GaussianNB",
    "GeneralizedSupervisedMetaBlocking",
    "GroundTruth",
    "LinearSVC",
    "LogisticRegression",
    "MatchingSession",
    "MetaBlockingResult",
    "MutableBlockIndex",
    "ORIGINAL_FEATURE_SET",
    "ParallelExecutor",
    "PAPER_FEATURES",
    "QGramsBlocking",
    "RCNP_FEATURE_SET",
    "ShardPlanner",
    "ShardedMutableBlockIndex",
    "StandardBlocking",
    "SuffixArraysBlocking",
    "SupervisedBLAST",
    "SupervisedCEP",
    "SupervisedCNP",
    "SupervisedRCNP",
    "SupervisedRWNP",
    "SupervisedWEP",
    "SupervisedWNP",
    "TokenBlocking",
    "WorkerCrashError",
    "evaluate_blocks",
    "evaluate_candidates",
    "evaluate_result",
    "evaluate_retained_mask",
    "extract_candidates",
    "filter_blocks",
    "get_pruning_algorithm",
    "load_all_benchmarks",
    "load_all_dirty_datasets",
    "load_benchmark",
    "load_dirty_dataset",
    "prepare_blocks",
    "purge_oversized_blocks",
    "__version__",
]
