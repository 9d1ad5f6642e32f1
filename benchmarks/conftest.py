"""Shared infrastructure for the benchmark harness.

``bench_paper.py`` regenerates the paper's tables and figures, one case per
entry of the experiment registry (:data:`repro.experiments.EXPERIMENTS`): it
runs the entry on (scaled) generated benchmarks, prints the rows/series the
paper reports, saves them under ``benchmarks/results/`` and times the run
with pytest-benchmark.  The other benches measure the streaming, serving and
ablation paths the same way.

Run with::

    pytest benchmarks/ --benchmark-only

The benches use fast experiment configurations (a representative subset of
datasets, one repetition) so the whole harness completes in a few minutes;
pass ``--full-benchmarks`` for the paper-scale cases (all 9 datasets, more
repetitions, the whole sweeps).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.experiments.common import prepare_dataset  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--full-benchmarks",
        action="store_true",
        default=False,
        help="run the benches on all 9 datasets with paper-scale repetitions",
    )


@pytest.fixture(scope="session")
def full_mode(request) -> bool:
    """Whether the benches should use the full (slow) configuration."""
    return bool(request.config.getoption("--full-benchmarks"))


@pytest.fixture(scope="session")
def report_sink():
    """Write a named report both to stdout and to benchmarks/results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _write


@pytest.fixture(scope="session")
def abtbuy_prepared():
    """AbtBuy prepared once for the single-dataset benches."""
    return prepare_dataset("AbtBuy", seed=0)
