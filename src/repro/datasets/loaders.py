"""Loaders for real benchmark corpora stored on disk.

When the original CSV corpora (e.g. from the Leipzig/Magellan repositories)
are available locally, these loaders build the same data-model objects the
synthetic generators produce, so the whole experiment harness runs unchanged
on real data.  Expected layout::

    <directory>/
        first.csv        # one entity per row, `id` column + attribute columns
        second.csv       # second collection (omit for Dirty ER)
        ground_truth.csv # columns: first_id, second_id

All files are plain UTF-8 CSV with a header row.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..datamodel.entity import EntityCollection, collection_from_dicts
from ..datamodel.ground_truth import GroundTruth
from .benchmarks import CleanCleanDataset
from .dirty import DirtyDataset
from .registry import DatasetProfile, DirtyDatasetProfile, get_profile

PathLike = Union[str, Path]


def read_entity_csv(
    path: PathLike,
    id_field: str = "id",
    name: Optional[str] = None,
    is_clean: bool = True,
) -> EntityCollection:
    """Read an entity collection from a CSV file (one row per entity)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"entity CSV not found: {path}")
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or id_field not in reader.fieldnames:
            raise ValueError(f"{path} must have a header containing the {id_field!r} column")
        rows: List[Dict[str, str]] = [dict(row) for row in reader]
    return collection_from_dicts(
        rows, id_field=id_field, name=name or path.stem, is_clean=is_clean
    )


def read_ground_truth_csv(
    path: PathLike,
    first: EntityCollection,
    second: Optional[EntityCollection] = None,
    first_column: str = "first_id",
    second_column: str = "second_id",
) -> GroundTruth:
    """Read duplicate id pairs from a CSV file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"ground-truth CSV not found: {path}")
    id_pairs: List[Tuple[str, str]] = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or first_column not in reader.fieldnames:
            raise ValueError(
                f"{path} must have a header containing {first_column!r} and {second_column!r}"
            )
        for row in reader:
            id_pairs.append((str(row[first_column]), str(row[second_column])))
    return GroundTruth.from_id_pairs(id_pairs, first, second)


def load_clean_clean_directory(
    directory: PathLike,
    name: Optional[str] = None,
    profile_name: Optional[str] = None,
) -> CleanCleanDataset:
    """Load a real Clean-Clean ER dataset from ``directory``.

    Parameters
    ----------
    directory:
        Folder containing ``first.csv``, ``second.csv`` and ``ground_truth.csv``.
    name:
        Dataset label (defaults to the directory name).
    profile_name:
        Optional registry profile to attach (e.g. ``"AbtBuy"``) so reports can
        compare against the paper's published characteristics.
    """
    directory = Path(directory)
    label = name or directory.name
    first = read_entity_csv(directory / "first.csv", name=f"{label}-1")
    second = read_entity_csv(directory / "second.csv", name=f"{label}-2")
    ground_truth = read_ground_truth_csv(directory / "ground_truth.csv", first, second)
    profile = get_profile(profile_name) if profile_name else _fallback_profile(label, first, second, ground_truth)
    return CleanCleanDataset(
        name=label, first=first, second=second, ground_truth=ground_truth, profile=profile
    )


def load_dirty_directory(directory: PathLike, name: Optional[str] = None) -> DirtyDataset:
    """Load a real Dirty ER dataset (``first.csv`` + ``ground_truth.csv``)."""
    directory = Path(directory)
    label = name or directory.name
    collection = read_entity_csv(directory / "first.csv", name=label, is_clean=False)
    ground_truth = read_ground_truth_csv(directory / "ground_truth.csv", collection)
    profile = DirtyDatasetProfile(name=label, paper_entities=len(collection), scale=1.0)
    return DirtyDataset(
        name=label, collection=collection, ground_truth=ground_truth, profile=profile
    )


def _fallback_profile(
    label: str,
    first: EntityCollection,
    second: EntityCollection,
    ground_truth: GroundTruth,
) -> DatasetProfile:
    """Build a descriptive profile for datasets not present in the registry."""
    from .corruption import CorruptionConfig

    return DatasetProfile(
        name=label,
        domain="products",
        paper_entities_first=len(first),
        paper_entities_second=len(second),
        paper_duplicates=len(ground_truth),
        paper_candidates=0,
        corruption=CorruptionConfig.moderate(),
        scale=1.0,
    )
