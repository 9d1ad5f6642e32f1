"""Fixtures for the fault-injection suite.

Reuses the serving tests' deterministic frozen model (``tests/reference.py``)
and guarantees every test in this directory starts and ends with fault
injection disarmed.
"""

import pytest

from reference import make_frozen_model
from repro import faults


@pytest.fixture(scope="session")
def frozen_model():
    return make_frozen_model()


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.clear()
    yield
    faults.clear()
