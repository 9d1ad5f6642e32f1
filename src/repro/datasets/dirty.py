"""Synthetic Dirty ER datasets for the scalability analysis.

The paper's scalability study (Section 5.5) uses 5 synthetic Dirty ER
datasets with 10,000–300,000 entities.  The generator below produces a single
"dirty" collection: a fraction of the entities are corrupted copies of other
entities in the *same* collection, so deduplication must find intra-collection
matches, exercising the unilateral-block code path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..datamodel.entity import EntityCollection, EntityProfile
from ..datamodel.ground_truth import GroundTruth
from ..utils.rng import SeedLike, make_rng
from .benchmarks import _base_profile
from .corruption import corrupt_attributes
from .registry import DatasetProfile, DirtyDatasetProfile, get_dirty_profile
from .vocabulary import get_vocabulary


@dataclass
class DirtyDataset:
    """A generated Dirty ER dataset: one collection plus its ground truth."""

    name: str
    collection: EntityCollection
    ground_truth: GroundTruth
    profile: DirtyDatasetProfile

    def summary(self) -> Dict[str, int]:
        """Size summary used in scalability reports."""
        return {
            "entities": len(self.collection),
            "duplicates": len(self.ground_truth),
        }


def generate_dirty(
    profile: DirtyDatasetProfile,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> DirtyDataset:
    """Generate a Dirty ER dataset from its profile.

    A ``duplicate_fraction`` share of the collection consists of corrupted
    copies of earlier entities; each copy forms one ground-truth pair with its
    original (duplicate clusters of size 2, as in Febrl-style generators).
    """
    rng = make_rng(seed)
    vocabulary = get_vocabulary("people", profile.vocabulary_size)
    total = profile.generated_size(scale)
    n_duplicates = int(round(profile.duplicate_fraction * total / (1.0 + profile.duplicate_fraction)))
    n_originals = total - n_duplicates
    if n_originals < 1 or n_duplicates < 1:
        raise ValueError("profile produces a degenerate dataset; increase the scale")

    # Reuse the Clean-Clean schema machinery with a people-flavoured profile.
    schema_profile = DatasetProfile(
        name=profile.name,
        domain="people",
        paper_entities_first=total,
        paper_entities_second=total,
        paper_duplicates=n_duplicates,
        paper_candidates=0,
        corruption=profile.corruption,
        tokens_per_entity=profile.tokens_per_entity,
        vocabulary_size=profile.vocabulary_size,
    )
    replacement_pool = list(vocabulary.tokens[: min(200, len(vocabulary.tokens))])

    profiles: List[EntityProfile] = []
    for index in range(n_originals):
        profiles.append(_base_profile(f"E{index}", vocabulary, schema_profile, rng))

    id_pairs: List[Tuple[str, str]] = []
    for copy_index in range(n_duplicates):
        original_index = int(rng.integers(0, n_originals))
        original = profiles[original_index]
        corrupted = corrupt_attributes(
            dict(original.attributes), profile.corruption, rng, replacement_pool
        )
        copy_id = f"E{n_originals + copy_index}"
        profiles.append(EntityProfile(entity_id=copy_id, attributes=corrupted))
        id_pairs.append((original.entity_id, copy_id))

    collection = EntityCollection(profiles, name=profile.name, is_clean=False)
    ground_truth = GroundTruth.from_id_pairs(id_pairs, collection)
    return DirtyDataset(
        name=profile.name,
        collection=collection,
        ground_truth=ground_truth,
        profile=profile,
    )


def load_dirty_dataset(
    name: str, seed: SeedLike = 0, scale: Optional[float] = None
) -> DirtyDataset:
    """Generate the Dirty ER dataset registered under ``name`` (e.g. ``"D100K"``)."""
    return generate_dirty(get_dirty_profile(name), seed=seed, scale=scale)
