"""Shared fixtures for the serving tests.

The serving layer's correctness contract is *exactness*: every response
must equal the canonical (offline) answer at its pinned WAL offset.  The
tests therefore use a deterministic frozen classifier — a fixed-weight
logistic with rounded probabilities, the same device the streaming
equivalence tests use (``tests/reference.py``) — so daemon, replicas and
offline reference score every pair bit-identically without training
anything.
"""

import pytest

from reference import make_frozen_model


@pytest.fixture(scope="session")
def frozen_model():
    return make_frozen_model()
