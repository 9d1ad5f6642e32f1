"""The reference implementations, reached by direct calls.

The library runs one implementation of each layer: ``compute_sparse`` for
the weighting schemes and the array engine for block preparation.  The
readable implementations they are checked against stay in ``src/`` under
their public names — the per-pair ``WeightingScheme.compute`` bodies and the
object chain ``BlockingMethod.build_blocks`` -> ``purge_oversized_blocks``
-> ``filter_blocks`` -> ``CandidateSet.from_blocks`` — but nothing in the
library selects them.  The two helpers below assemble those public calls
into the shapes ``FeatureVectorGenerator.generate`` and ``prepare_blocks``
return, so an equivalence, golden or perf-smoke test compares like with like.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.blocking import (
    BlockingMethod,
    PreparedBlocks,
    TokenBlocking,
    filter_blocks,
    purge_oversized_blocks,
)
from repro.core.features import FeatureMatrix, FeatureVectorGenerator
from repro.datamodel import CandidateSet, EntityCollection
from repro.utils.timing import StageTimer
from repro.weights import BlockStatistics


def reference_feature_matrix(
    feature_set: Sequence[str], candidates: CandidateSet, stats: BlockStatistics
) -> FeatureMatrix:
    """The feature matrix of ``candidates`` from the per-pair ``compute`` bodies."""
    generator = FeatureVectorGenerator(feature_set)
    return FeatureMatrix(
        values=np.hstack([scheme.compute(candidates, stats) for scheme in generator.schemes]),
        columns=generator.columns,
        feature_set=generator.feature_set,
    )


def reference_prepare_blocks(
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    blocking: Optional[BlockingMethod] = None,
    purging_fraction: float = 0.5,
    filtering_ratio: float = 0.8,
    apply_purging: bool = True,
    apply_filtering: bool = True,
) -> PreparedBlocks:
    """``prepare_blocks`` on the object chain (same toggles, same stage names).

    No CSR is handed over: statistics built from the result derive it from
    the block objects.
    """
    method = blocking if blocking is not None else TokenBlocking()
    timer = StageTimer()
    with timer.stage("blocking"):
        raw = method.build_blocks(first, second).without_empty_blocks()
    with timer.stage("purging"):
        purged = purge_oversized_blocks(raw, purging_fraction) if apply_purging else raw
    with timer.stage("filtering"):
        filtered = filter_blocks(purged, filtering_ratio) if apply_filtering else purged
    with timer.stage("candidate-extraction"):
        candidates = CandidateSet.from_blocks(filtered)
    return PreparedBlocks(
        raw_blocks=raw,
        purged_blocks=purged,
        blocks=filtered,
        candidates=candidates,
        timer=timer,
    )
