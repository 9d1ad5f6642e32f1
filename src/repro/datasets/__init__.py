"""Dataset substrates: benchmark profiles, synthetic generators, CSV loaders."""

from .._exports import lazy_exports

#: public name -> the submodule that defines it (see repro._exports)
_EXPORTS = {
    "CLEAN_CLEAN_ORDER": "registry",
    "CLEAN_CLEAN_PROFILES": "registry",
    "CleanCleanDataset": "benchmarks",
    "CorruptionConfig": "corruption",
    "DIRTY_ORDER": "registry",
    "DIRTY_PROFILES": "registry",
    "DatasetProfile": "registry",
    "DirtyDataset": "dirty",
    "DirtyDatasetProfile": "registry",
    "Vocabulary": "vocabulary",
    "corrupt_attributes": "corruption",
    "corrupt_tokens": "corruption",
    "generate_clean_clean": "benchmarks",
    "generate_dirty": "dirty",
    "get_dirty_profile": "registry",
    "get_profile": "registry",
    "get_vocabulary": "vocabulary",
    "introduce_typo": "corruption",
    "load_all_benchmarks": "benchmarks",
    "load_all_dirty_datasets": "dirty",
    "load_benchmark": "benchmarks",
    "load_clean_clean_directory": "loaders",
    "load_dirty_dataset": "dirty",
    "load_dirty_directory": "loaders",
    "read_entity_csv": "loaders",
    "read_ground_truth_csv": "loaders",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
