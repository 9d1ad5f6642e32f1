"""Repository-level pytest configuration.

Makes the in-tree sources importable even when the package has not been
installed (offline environments without the ``wheel`` package cannot perform
PEP 660 editable installs; ``python setup.py develop`` or this path hook both
work).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "perf: performance smoke tests timing compute_sparse against the reference "
        "(deselect with '-m \"not perf\"' or set REPRO_SKIP_PERF=1 in "
        "constrained CI)",
    )
