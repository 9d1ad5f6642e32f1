"""Streaming application harness: bootstrap training + stream replay.

``repro stream`` (and the dynamic-churn bench) share this layer.  A
Clean-Clean dataset is split into a *bootstrap* prefix used to train the
frozen classifier through the regular batch pipeline, and the whole
collection is then replayed through a :class:`MatchingSession` one entity at
a time, recording per-insert latency and the candidate delta of every
insert.  A non-zero ``delete_fraction`` interleaves seeded random entity
removals with the inserts (``repro stream --deletes``), exercising the fully
dynamic index; per-delete latency and retraction sizes are recorded
alongside the insert metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..blocking.candidate_extraction import prepare_blocks
from ..blocking.cleaning import PAPER_CLEANING, BlockCleaning
from ..core.pipeline import GeneralizedSupervisedMetaBlocking
from ..datamodel.entity import EntityCollection, EntityProfile
from ..datamodel.ground_truth import GroundTruth
from ..datasets.benchmarks import CleanCleanDataset
from ..utils.rng import SeedLike, make_rng
from ..weights.registry import BLAST_FEATURE_SET
from .session import FrozenModel, MatchingSession, SessionResult


class StreamTrainingError(ValueError):
    """The dataset cannot train a frozen model (no usable ground truth)."""


def ground_truth_id_pairs(
    ground_truth: GroundTruth,
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
) -> Set[Tuple[str, str]]:
    """Map a ground truth's node pairs back to entity-id pairs."""
    pairs: Set[Tuple[str, str]] = set()
    size_first = len(first)
    for i, j in ground_truth:
        if second is None:
            pairs.add((first[i].entity_id, first[j].entity_id))
        else:
            pairs.add((first[i].entity_id, second[j - size_first].entity_id))
    return pairs


def split_bootstrap(
    dataset: CleanCleanDataset, fraction: float
) -> Tuple[EntityCollection, EntityCollection, GroundTruth]:
    """The bootstrap prefix of a dataset: leading entities of both sides.

    Raises
    ------
    StreamTrainingError
        When the bootstrap contains no ground-truth duplicate — the frozen
        classifier cannot be trained without labelled matches.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("bootstrap fraction must be in (0, 1]")
    n_first = max(2, int(round(fraction * len(dataset.first))))
    n_second = max(2, int(round(fraction * len(dataset.second))))
    boot_first = EntityCollection(
        list(dataset.first)[:n_first], name=f"{dataset.first.name}|boot"
    )
    boot_second = EntityCollection(
        list(dataset.second)[:n_second], name=f"{dataset.second.name}|boot"
    )
    retained = [
        (a, b)
        for a, b in ground_truth_id_pairs(
            dataset.ground_truth, dataset.first, dataset.second
        )
        if a in boot_first and b in boot_second
    ]
    if not retained:
        raise StreamTrainingError(
            f"the bootstrap prefix ({fraction:.0%} of {dataset.name}) contains no "
            "ground-truth duplicate; increase --bootstrap or provide a dataset "
            "with ground truth"
        )
    truth = GroundTruth.from_id_pairs(retained, boot_first, boot_second)
    return boot_first, boot_second, truth


def train_frozen_model(
    dataset: CleanCleanDataset,
    bootstrap_fraction: float = 0.5,
    feature_set: Sequence[str] = BLAST_FEATURE_SET,
    pruning: str = "BLAST",
    training_size: int = 50,
    seed: SeedLike = 0,
    cleaning: BlockCleaning = PAPER_CLEANING,
) -> FrozenModel:
    """Train a frozen classifier on the dataset's bootstrap prefix.

    The bootstrap runs through the batch pipeline with ``cleaning`` — by
    default the paper's, ``prepare_blocks``' defaults: Block Purging 0.5,
    Block Filtering 0.8 — and the model records that cleaning
    (:attr:`FrozenModel.cleaning`), so every exact streamed or served answer
    it scores reads the live collection cleaned the same way: the classifier
    sees the feature distribution it was trained on.  Insert-time scores
    stay on the raw deltas.
    """
    boot_first, boot_second, truth = split_bootstrap(dataset, bootstrap_fraction)
    prepared = prepare_blocks(boot_first, boot_second, cleaning=cleaning)
    pipeline = GeneralizedSupervisedMetaBlocking(
        feature_set=feature_set,
        pruning=pruning,
        training_size=training_size,
        seed=seed,
    )
    try:
        result = pipeline.run(
            prepared.blocks, prepared.candidates, truth, stats=prepared.statistics()
        )
    except ValueError as error:
        raise StreamTrainingError(
            f"cannot train the frozen classifier on the {dataset.name} bootstrap: "
            f"{error}"
        ) from error
    return FrozenModel.from_batch(result, cleaning)


def interleave_profiles(
    first: EntityCollection, second: EntityCollection
) -> Iterator[Tuple[EntityProfile, int]]:
    """Alternate entities from the two sides, draining the longer one last.

    This is the arrival order ``repro stream`` and the equivalence tests
    replay — deliberately interleaved, so the index handles node ids that do
    not form contiguous per-side ranges.
    """
    iter_first = iter(first)
    iter_second = iter(second)
    while True:
        emitted = False
        profile = next(iter_first, None)
        if profile is not None:
            emitted = True
            yield profile, 0
        profile = next(iter_second, None)
        if profile is not None:
            emitted = True
            yield profile, 1
        if not emitted:
            return


def _empty_floats() -> np.ndarray:
    return np.zeros(0, dtype=np.float64)


def _empty_ints() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class StreamReplay:
    """Everything measured while replaying a dataset through a session."""

    #: the session after all inserts (query :meth:`MatchingSession.retained`)
    session: MatchingSession
    #: wall-clock seconds of every insert
    insert_seconds: np.ndarray
    #: candidate delta (number of new pairs) of every insert
    delta_sizes: np.ndarray
    #: number of streaming matches reported online per insert
    online_matches: np.ndarray
    #: wall-clock seconds of every interleaved delete (empty without churn)
    delete_seconds: np.ndarray = field(default_factory=_empty_floats)
    #: retraction delta (number of dead pairs) of every delete
    retraction_sizes: np.ndarray = field(default_factory=_empty_ints)

    @property
    def num_inserts(self) -> int:
        """Number of entities streamed."""
        return int(self.insert_seconds.size)

    @property
    def num_deletes(self) -> int:
        """Number of entities removed during the replay."""
        return int(self.delete_seconds.size)

    @property
    def total_seconds(self) -> float:
        """Summed insert time."""
        return float(self.insert_seconds.sum())

    @property
    def throughput(self) -> float:
        """Inserts per second (0 when nothing was streamed)."""
        total = self.total_seconds
        return self.num_inserts / total if total > 0 else 0.0

    def latency_percentiles(self) -> Tuple[float, float, float]:
        """(mean, median, p95) insert latency in seconds."""
        if self.insert_seconds.size == 0:
            return (0.0, 0.0, 0.0)
        return (
            float(self.insert_seconds.mean()),
            float(np.percentile(self.insert_seconds, 50)),
            float(np.percentile(self.insert_seconds, 95)),
        )


def replay_stream(
    dataset: CleanCleanDataset,
    model: FrozenModel,
    pruning: str = "BLAST",
    limit: Optional[int] = None,
    delete_fraction: float = 0.0,
    churn_seed: SeedLike = 0,
    wal_path=None,
    snapshot_every: Optional[int] = None,
    wal_sync: str = "always",
) -> StreamReplay:
    """Stream a Clean-Clean dataset through a fresh matching session.

    Parameters
    ----------
    delete_fraction:
        Probability, after each insert, of removing one uniformly chosen
        *live* entity (seeded by ``churn_seed``) — a simple churn model that
        interleaves retractions with arrivals.  ``0.0`` (default) replays
        inserts only.
    churn_seed:
        Seed for the churn decisions, so delete-heavy replays are exactly
        reproducible.
    wal_path:
        Optional write-ahead-log directory; the replayed session journals
        every mutation and can be resumed with
        :meth:`MatchingSession.recover` (``repro stream --wal``).
    snapshot_every:
        Mutations between automatic session checkpoints when journaling.
    wal_sync:
        ``"always"`` or ``"batch"`` (see :class:`MatchingSession`).
    """
    if not 0.0 <= delete_fraction < 1.0:
        raise ValueError("delete_fraction must be in [0, 1)")
    session = MatchingSession(
        model,
        bilateral=True,
        pruning=pruning,
        wal_path=wal_path,
        snapshot_every=snapshot_every,
        wal_sync=wal_sync,
    )
    rng = make_rng(churn_seed)
    seconds: List[float] = []
    deltas: List[int] = []
    matches: List[int] = []
    delete_seconds: List[float] = []
    retraction_sizes: List[int] = []
    live: List[Tuple[str, int]] = []
    for profile, side in interleave_profiles(dataset.first, dataset.second):
        if limit is not None and len(seconds) >= limit:
            break
        started = time.perf_counter()
        result = session.insert(profile, side=side)
        seconds.append(time.perf_counter() - started)
        deltas.append(result.num_new_pairs)
        matches.append(len(result.matches))
        live.append((profile.entity_id, side))
        if delete_fraction and live and rng.random() < delete_fraction:
            victim_id, victim_side = live.pop(int(rng.integers(len(live))))
            started = time.perf_counter()
            removal = session.remove(victim_id, side=victim_side)
            delete_seconds.append(time.perf_counter() - started)
            retraction_sizes.append(removal.num_retracted_pairs)
    return StreamReplay(
        session=session,
        insert_seconds=np.asarray(seconds, dtype=np.float64),
        delta_sizes=np.asarray(deltas, dtype=np.int64),
        online_matches=np.asarray(matches, dtype=np.int64),
        delete_seconds=np.asarray(delete_seconds, dtype=np.float64),
        retraction_sizes=np.asarray(retraction_sizes, dtype=np.int64),
    )


def live_truth_id_pairs(
    index, truth_id_pairs: Set[Tuple[str, str]]
) -> Set[Tuple[str, str]]:
    """Restrict ground truth to duplicates whose entities are both *live*.

    Recall over a dynamic stream must be judged against what the index can
    possibly retain: duplicates never streamed (``--limit``) or since
    retracted (``--deletes``) are not misses, they are out of scope.  This
    recomputes the eligible set from the index's live state rather than from
    what was ever inserted.
    """
    return {
        (a, b)
        for a, b in truth_id_pairs
        if index.has_entity(a, 0) and index.has_entity(b, 1)
    }


def evaluate_retained_ids(
    result: SessionResult, truth_id_pairs: Set[Tuple[str, str]]
) -> Tuple[float, float]:
    """(recall, precision) of a session's retained id pairs vs ground truth."""
    retained = result.retained_id_set()
    if not truth_id_pairs:
        return (0.0, 0.0)
    hits = len(retained & truth_id_pairs)
    recall = hits / len(truth_id_pairs)
    precision = hits / len(retained) if retained else 0.0
    return (recall, precision)
