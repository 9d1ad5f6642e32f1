"""Synthetic Clean-Clean ER benchmark generation.

Each of the paper's 9 real-world benchmarks is emulated by a deterministic
generator driven by its :class:`~repro.datasets.registry.DatasetProfile`:

1. a pool of *base* entities is drawn from the domain vocabulary;
2. the first ``|D|`` base entities appear in both collections — verbatim in
   the first one and as a *corrupted copy* in the second one (typos, dropped
   tokens, missing attributes at the profile's corruption level);
3. the remaining entities of each collection are non-matching profiles drawn
   from the same vocabulary, so they still share frequent tokens with other
   entities and generate the superfluous comparisons meta-blocking must prune.

The corruption level controls how many duplicates end up sharing only a
single block, reproducing the high-/low-recall split of Figures 15/16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datamodel.entity import EntityCollection, EntityProfile
from ..datamodel.ground_truth import GroundTruth
from ..utils.rng import SeedLike, make_rng
from .corruption import corrupt_attributes
from .registry import DatasetProfile, get_profile
from .vocabulary import Vocabulary, get_vocabulary

#: Attribute layout per vocabulary domain: (attribute name, token count range).
_DOMAIN_SCHEMAS: Dict[str, Tuple[Tuple[str, Tuple[int, int]], ...]] = {
    "products": (
        ("name", (2, 4)),
        ("description", (2, 5)),
        ("manufacturer", (1, 1)),
        ("price", (1, 1)),
    ),
    "movies": (
        ("title", (2, 4)),
        ("cast", (2, 4)),
        ("genre", (1, 2)),
        ("year", (1, 1)),
    ),
    "bibliographic": (
        ("title", (3, 6)),
        ("authors", (2, 4)),
        ("venue", (1, 2)),
        ("year", (1, 1)),
    ),
    "people": (
        ("name", (1, 2)),
        ("surname", (1, 1)),
        ("address", (2, 4)),
        ("city", (1, 1)),
    ),
}


@dataclass
class CleanCleanDataset:
    """A generated Clean-Clean ER dataset: two collections plus ground truth."""

    name: str
    first: EntityCollection
    second: EntityCollection
    ground_truth: GroundTruth
    profile: DatasetProfile

    def summary(self) -> Dict[str, int]:
        """Size summary used in Table 1-style reports."""
        return {
            "entities_first": len(self.first),
            "entities_second": len(self.second),
            "duplicates": len(self.ground_truth),
        }


def _numeric_value(rng: np.random.Generator, attribute: str) -> str:
    """Generate a numeric-ish attribute value with deliberately low cardinality."""
    if attribute == "year":
        return str(int(rng.integers(1960, 2022)))
    if attribute == "price":
        return f"{int(rng.integers(1, 200)) * 5}.99"
    return str(int(rng.integers(0, 10_000)))


def _base_profile(
    entity_id: str,
    vocabulary: Vocabulary,
    profile: DatasetProfile,
    rng: np.random.Generator,
) -> EntityProfile:
    """Draw one base entity profile following the domain schema."""
    schema = _DOMAIN_SCHEMAS[profile.domain]
    attributes: Dict[str, str] = {}
    for attribute, (low, high) in schema:
        if attribute in ("year", "price", "phone"):
            attributes[attribute] = _numeric_value(rng, attribute)
            continue
        count = int(rng.integers(low, high + 1))
        tokens = vocabulary.sample_tokens(rng, count)
        attributes[attribute] = " ".join(tokens)
    return EntityProfile(entity_id=entity_id, attributes=attributes)


def _variant_profile(
    entity_id: str,
    base: EntityProfile,
    vocabulary: Vocabulary,
    profile: DatasetProfile,
    rng: np.random.Generator,
    replacement_pool: Sequence[str],
) -> EntityProfile:
    """Create a *hard negative*: a near-duplicate of ``base`` that is not a match.

    The variant shares most of the base's distinctive tokens (so it co-occurs
    with the base — and with the base's true duplicate — in many blocks) but
    differs in at least one token and in the numeric attribute, emulating
    sibling products / sequels / different editions that plague the real
    benchmarks and keep their precision well below 1.
    """
    from .corruption import CorruptionConfig

    variant_noise = CorruptionConfig(
        token_typo_probability=0.1,
        token_drop_probability=0.2,
        token_swap_probability=0.2,
        attribute_missing_probability=0.1,
    )
    attributes = corrupt_attributes(
        dict(base.attributes), variant_noise, rng, replacement_pool
    )
    # Force a visible difference: replace/refresh the numeric attribute and
    # append a new distinctive token to the first textual attribute.
    for attribute in attributes:
        if attribute in ("year", "price", "phone"):
            attributes[attribute] = _numeric_value(rng, attribute)
    textual = [name for name, value in attributes.items() if value and name not in ("year", "price", "phone")]
    if textual:
        target = textual[int(rng.integers(0, len(textual)))]
        extra = vocabulary.sample_tokens(rng, 1, with_common=False)
        attributes[target] = (attributes[target] + " " + extra[0]).strip()
    return EntityProfile(entity_id=entity_id, attributes=attributes)


def generate_clean_clean(
    profile: DatasetProfile,
    seed: SeedLike = 0,
    scale: Optional[float] = None,
) -> CleanCleanDataset:
    """Generate a Clean-Clean ER dataset from a benchmark profile.

    Parameters
    ----------
    profile:
        The benchmark profile (see :data:`repro.datasets.registry.CLEAN_CLEAN_PROFILES`).
    seed:
        Master seed; the same (profile, seed, scale) triple always produces
        the same dataset.
    scale:
        Optional override of the profile's generation scale.
    """
    rng = make_rng(seed)
    vocabulary = get_vocabulary(profile.domain, profile.vocabulary_size)
    size_first, size_second, duplicates = profile.generated_sizes(scale)

    replacement_pool = list(vocabulary.tokens[: min(200, len(vocabulary.tokens))])

    first_profiles: List[EntityProfile] = []
    second_profiles: List[EntityProfile] = []
    id_pairs: List[Tuple[str, str]] = []
    base_pool: List[EntityProfile] = []

    # Matching entities: original in the first collection, corrupted copy in
    # the second one.
    for index in range(duplicates):
        base = _base_profile(f"A{index}", vocabulary, profile, rng)
        first_profiles.append(base)
        base_pool.append(base)
        corrupted = corrupt_attributes(
            dict(base.attributes), profile.corruption, rng, replacement_pool
        )
        second_profiles.append(
            EntityProfile(entity_id=f"B{index}", attributes=corrupted)
        )
        id_pairs.append((f"A{index}", f"B{index}"))

    # Non-matching entities completing each collection.  A configurable share
    # of them are hard negatives: near-duplicate variants of existing base
    # entities that co-occur with true matches in many blocks.
    def _extra_profile(entity_id: str) -> EntityProfile:
        if base_pool and rng.random() < profile.hard_negative_fraction:
            base = base_pool[int(rng.integers(0, len(base_pool)))]
            return _variant_profile(
                entity_id, base, vocabulary, profile, rng, replacement_pool
            )
        fresh = _base_profile(entity_id, vocabulary, profile, rng)
        base_pool.append(fresh)
        return fresh

    for index in range(duplicates, size_first):
        first_profiles.append(_extra_profile(f"A{index}"))
    for index in range(duplicates, size_second):
        second_profiles.append(_extra_profile(f"B{index}"))

    first = EntityCollection(first_profiles, name=f"{profile.name}-1", is_clean=True)
    second = EntityCollection(second_profiles, name=f"{profile.name}-2", is_clean=True)
    ground_truth = GroundTruth.from_id_pairs(id_pairs, first, second)
    return CleanCleanDataset(
        name=profile.name,
        first=first,
        second=second,
        ground_truth=ground_truth,
        profile=profile,
    )


def load_benchmark(
    name: str, seed: SeedLike = 0, scale: Optional[float] = None
) -> CleanCleanDataset:
    """Generate the benchmark registered under ``name`` (e.g. ``"AbtBuy"``)."""
    return generate_clean_clean(get_profile(name), seed=seed, scale=scale)
