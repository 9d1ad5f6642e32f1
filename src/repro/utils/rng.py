"""Reproducible random number generation helpers.

Every stochastic component of the library (training-set sampling, dataset
generation, classifier initialisation) receives an explicit seed or a
``numpy.random.Generator``.  These helpers centralise the conversion so
experiment runs are reproducible end to end, as the paper requires ("fixing
the random state so as to reproduce the probabilities over several runs").

**One entrypoint.** :func:`make_rng` is the library's *single RNG
entrypoint*: no module draws randomness any other way.  The batch pipeline
runs in one process and every stochastic stage (``repro.ml`` sampling,
training, classifier initialisation) consumes the caller's explicit seed
exactly once, in a fixed order, so training sets, fitted models and
probabilities are bit-identical run to run.  The serving daemon's shard
workers replay the write-ahead log and draw no randomness.  Code that needs
independent streams derives them from one seed with :func:`spawn_seeds`.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from an int seed or pass-through.

    ``None`` yields a non-deterministic generator; an existing generator is
    returned unchanged so callers can thread a single stream through a
    pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: SeedLike, count: int) -> list[int]:
    """Derive ``count`` independent integer seeds from a master seed.

    Used by the experiment runner to obtain one seed per repetition while
    staying reproducible from a single configuration value.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = make_rng(seed)
    return [int(value) for value in rng.integers(0, 2**31 - 1, size=count)]


def sample_without_replacement(
    rng: np.random.Generator, population_size: int, sample_size: int
) -> np.ndarray:
    """Sample ``sample_size`` distinct indices from ``range(population_size)``.

    When the requested sample exceeds the population, the whole population is
    returned (shuffled) — the caller is expected to handle the shortfall,
    mirroring how the paper's undersampling degrades gracefully on tiny
    datasets.
    """
    if population_size < 0 or sample_size < 0:
        raise ValueError("sizes must be non-negative")
    if sample_size >= population_size:
        return rng.permutation(population_size)
    return rng.choice(population_size, size=sample_size, replace=False)
