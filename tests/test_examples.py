"""Every example runs to completion on the current API.

``test_no_unused_imports`` and the guard table only parse ``examples/*.py``;
this runs each script as a reader would — its own interpreter,
``PYTHONPATH=src``, from outside the repository — and asserts it exits 0, so
an example that calls a name the library dropped fails here.
"""

import os
import subprocess
import sys

import pytest

from source_tree import REPO

EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.strip()
