"""Dataset registry: profiles of the paper's benchmark corpora.

The paper evaluates on 9 real-world Clean-Clean ER datasets (Table 1) and 5
synthetic Dirty ER datasets (D10K–D300K).  The original corpora cannot be
downloaded in this offline environment, so each is represented by a
:class:`DatasetProfile` capturing the characteristics the algorithms are
sensitive to — relative sizes, duplicate counts, domain/attribute schema,
and above all the corruption level, which determines how many duplicates
share only a single block (the property that separates the high-recall from
the low-recall datasets in Figures 15/16).

Generated datasets are scaled down by default (``scale``) so the full
experiment suite runs in minutes on a laptop; the paper's absolute sizes are
retained in the profile for reference and for the reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .corruption import CorruptionConfig


@dataclass(frozen=True)
class DatasetProfile:
    """Characteristics of one Clean-Clean ER benchmark dataset."""

    #: dataset name as used in the paper's tables
    name: str
    #: vocabulary domain ("products", "movies", "bibliographic", "people")
    domain: str
    #: entity counts and duplicate count reported in Table 1
    paper_entities_first: int
    paper_entities_second: int
    paper_duplicates: int
    #: candidate pairs reported in Table 1 (after purging + filtering)
    paper_candidates: int
    #: corruption level applied to the duplicate copies
    corruption: CorruptionConfig
    #: how many distinctive tokens a profile value carries on average
    tokens_per_entity: int = 6
    #: vocabulary size; smaller vocabularies create denser candidate sets
    vocabulary_size: int = 2500
    #: generation scale relative to the paper sizes
    scale: float = 0.2
    #: whether the paper observes recall > 0.9 for BLAST on this dataset
    high_recall: bool = True
    #: fraction of the non-matching entities generated as near-duplicate
    #: variants of existing entities (hard negatives); higher values lower the
    #: achievable precision, mirroring the noisier benchmarks
    hard_negative_fraction: float = 0.5

    def generated_sizes(self, scale: Optional[float] = None) -> Tuple[int, int, int]:
        """Return the (|E1|, |E2|, |D|) used for generation at ``scale``."""
        factor = self.scale if scale is None else scale
        if factor <= 0:
            raise ValueError("scale must be positive")
        first = max(80, int(round(self.paper_entities_first * factor)))
        second = max(80, int(round(self.paper_entities_second * factor)))
        duplicates = max(40, int(round(self.paper_duplicates * factor)))
        duplicates = min(duplicates, first, second)
        return first, second, duplicates


#: The 9 Clean-Clean ER benchmarks of Table 1, ordered as in the paper
#: (increasing number of candidate pairs).
CLEAN_CLEAN_PROFILES: Dict[str, DatasetProfile] = {
    "AbtBuy": DatasetProfile(
        name="AbtBuy",
        domain="products",
        paper_entities_first=1_100,
        paper_entities_second=1_100,
        paper_duplicates=1_100,
        paper_candidates=36_700,
        corruption=CorruptionConfig.noisy(),
        tokens_per_entity=7,
        vocabulary_size=1_800,
        scale=0.25,
        high_recall=False,
        hard_negative_fraction=0.65,
    ),
    "DblpAcm": DatasetProfile(
        name="DblpAcm",
        domain="bibliographic",
        paper_entities_first=2_600,
        paper_entities_second=2_300,
        paper_duplicates=2_200,
        paper_candidates=46_200,
        corruption=CorruptionConfig.clean(),
        tokens_per_entity=9,
        vocabulary_size=3_000,
        scale=0.12,
        high_recall=True,
        hard_negative_fraction=0.3,
    ),
    "ScholarDblp": DatasetProfile(
        name="ScholarDblp",
        domain="bibliographic",
        paper_entities_first=2_500,
        paper_entities_second=61_300,
        paper_duplicates=2_300,
        paper_candidates=83_300,
        corruption=CorruptionConfig.clean(),
        tokens_per_entity=8,
        vocabulary_size=4_000,
        scale=0.012,
        high_recall=True,
        hard_negative_fraction=0.5,
    ),
    "AmazonGP": DatasetProfile(
        name="AmazonGP",
        domain="products",
        paper_entities_first=1_400,
        paper_entities_second=3_300,
        paper_duplicates=1_300,
        paper_candidates=84_400,
        corruption=CorruptionConfig.noisy(),
        tokens_per_entity=7,
        vocabulary_size=1_600,
        scale=0.18,
        high_recall=False,
        hard_negative_fraction=0.7,
    ),
    "ImdbTmdb": DatasetProfile(
        name="ImdbTmdb",
        domain="movies",
        paper_entities_first=5_100,
        paper_entities_second=6_000,
        paper_duplicates=1_900,
        paper_candidates=109_400,
        corruption=CorruptionConfig.moderate(),
        tokens_per_entity=7,
        vocabulary_size=2_800,
        scale=0.07,
        high_recall=False,
        hard_negative_fraction=0.4,
    ),
    "ImdbTvdb": DatasetProfile(
        name="ImdbTvdb",
        domain="movies",
        paper_entities_first=5_100,
        paper_entities_second=7_800,
        paper_duplicates=1_100,
        paper_candidates=119_100,
        corruption=CorruptionConfig.moderate(),
        tokens_per_entity=6,
        vocabulary_size=2_600,
        scale=0.06,
        high_recall=False,
        hard_negative_fraction=0.6,
    ),
    "TmdbTvdb": DatasetProfile(
        name="TmdbTvdb",
        domain="movies",
        paper_entities_first=6_000,
        paper_entities_second=7_800,
        paper_duplicates=1_100,
        paper_candidates=198_600,
        corruption=CorruptionConfig.moderate(),
        tokens_per_entity=6,
        vocabulary_size=2_400,
        scale=0.055,
        high_recall=False,
        hard_negative_fraction=0.6,
    ),
    "Movies": DatasetProfile(
        name="Movies",
        domain="movies",
        paper_entities_first=27_600,
        paper_entities_second=23_100,
        paper_duplicates=22_800,
        paper_candidates=26_000_000,
        corruption=CorruptionConfig.clean(),
        tokens_per_entity=8,
        vocabulary_size=3_500,
        scale=0.018,
        high_recall=True,
        hard_negative_fraction=0.7,
    ),
    "WalmartAmazon": DatasetProfile(
        name="WalmartAmazon",
        domain="products",
        paper_entities_first=2_500,
        paper_entities_second=22_100,
        paper_duplicates=1_100,
        paper_candidates=27_400_000,
        corruption=CorruptionConfig.clean(),
        tokens_per_entity=7,
        vocabulary_size=1_500,
        scale=0.05,
        high_recall=True,
        hard_negative_fraction=0.85,
    ),
}


@dataclass(frozen=True)
class DirtyDatasetProfile:
    """Characteristics of one synthetic Dirty ER dataset (scalability study)."""

    name: str
    paper_entities: int
    #: fraction of the entities that are duplicates of another entity
    duplicate_fraction: float = 0.3
    corruption: CorruptionConfig = field(default_factory=CorruptionConfig.moderate)
    tokens_per_entity: int = 6
    vocabulary_size: int = 4_000
    scale: float = 0.05

    def generated_size(self, scale: Optional[float] = None) -> int:
        """Number of entities generated at ``scale``."""
        factor = self.scale if scale is None else scale
        if factor <= 0:
            raise ValueError("scale must be positive")
        return max(200, int(round(self.paper_entities * factor)))


#: The 5 synthetic Dirty ER datasets of the scalability analysis.
DIRTY_PROFILES: Dict[str, DirtyDatasetProfile] = {
    "D10K": DirtyDatasetProfile(name="D10K", paper_entities=10_000, scale=0.06),
    "D50K": DirtyDatasetProfile(name="D50K", paper_entities=50_000, scale=0.024),
    "D100K": DirtyDatasetProfile(name="D100K", paper_entities=100_000, scale=0.016),
    "D200K": DirtyDatasetProfile(name="D200K", paper_entities=200_000, scale=0.011),
    "D300K": DirtyDatasetProfile(name="D300K", paper_entities=300_000, scale=0.009),
}

#: Paper ordering of the Clean-Clean datasets (Table 1 / Tables 5 & 7 columns).
CLEAN_CLEAN_ORDER: List[str] = [
    "AbtBuy",
    "DblpAcm",
    "ScholarDblp",
    "AmazonGP",
    "ImdbTmdb",
    "ImdbTvdb",
    "TmdbTvdb",
    "Movies",
    "WalmartAmazon",
]

#: Paper ordering of the Dirty ER datasets (Figures 17 & 18).
DIRTY_ORDER: List[str] = ["D10K", "D50K", "D100K", "D200K", "D300K"]

#: Datasets used by default in the fast experiment configurations (and the
#: CLI's ``--datasets`` default): a subset spanning easy (DblpAcm), hard
#: (AbtBuy, AmazonGP) and large-ish (Movies) benchmarks, so smoke runs finish
#: quickly.
FAST_DATASET_SUBSET: Tuple[str, ...] = ("AbtBuy", "DblpAcm", "AmazonGP", "ImdbTmdb")


def get_profile(name: str) -> DatasetProfile:
    """Return the Clean-Clean profile registered under ``name``."""
    try:
        return CLEAN_CLEAN_PROFILES[name]
    except KeyError:
        known = ", ".join(CLEAN_CLEAN_ORDER)
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}") from None


def get_dirty_profile(name: str) -> DirtyDatasetProfile:
    """Return the Dirty ER profile registered under ``name``."""
    try:
        return DIRTY_PROFILES[name]
    except KeyError:
        known = ", ".join(DIRTY_ORDER)
        raise KeyError(f"unknown dirty dataset {name!r}; known datasets: {known}") from None
