"""Fixtures for the fault-injection suite.

Reuses the serving tests' deterministic frozen model (``tests/reference.py``),
generates the chaos suite's seeded kill-loop plans, and guarantees every test
in this directory starts and ends with fault injection disarmed.
"""

import random

import pytest

from reference import make_frozen_model
from repro import faults
from repro.faults import FaultPlan


def _kill_loop(seed: int, num_shards: int, low: int = 2, high: int = 8) -> FaultPlan:
    """A seeded schedule killing every shard worker once mid-replay.

    Each shard's worker dies while applying a record drawn uniformly
    from ``[low, high]`` — the chaos suite's canonical kill-loop.
    """
    rng = random.Random(seed)
    return FaultPlan(
        seed=int(seed),
        kill_worker={shard: rng.randint(low, high) for shard in range(num_shards)},
    )


@pytest.fixture
def kill_loop():
    """:func:`_kill_loop`, for a test to draw its plan with."""
    return _kill_loop


@pytest.fixture(scope="session")
def frozen_model():
    return make_frozen_model()


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()
