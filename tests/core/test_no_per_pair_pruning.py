"""No pruning algorithm walks the pairs in Python: no queue is ever built.

CEP / CNP / RCNP used to push every valid pair through a bounded priority
queue (one per node for the node-centric ones).  They are array passes now
(``repro.core.pruning.kernels``), the queue lives only in
``tests/reference.py`` as its oracle's structure — a row of
``tests/test_guards.py`` fails if a ``src/`` module imports one again, and
another keeps the strict (weight, key, position) order every selection runs
under spelled once.

At run time the same claim is held by counting the Python lines any
``repro`` module executes while an algorithm prunes: a loop over the pairs
runs at least one line per pair, so every algorithm's ``prune`` (on
probabilities) and ``retain`` (on every pair's scheme weight), dirty and
clean-clean, must finish in fewer lines than it has pairs to decide on (a few
dozen against thousands).
"""

import sys
from contextlib import contextmanager

import numpy as np
import pytest

from repro.blocking import prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.core.pruning import PRUNING_ALGORITHMS, VALIDITY_THRESHOLD, BlockTotals
from repro.datasets import load_benchmark, load_dirty_dataset
from repro.weights import get_scheme
from source_tree import ROOT

pytestmark = pytest.mark.equivalence

#: fewer pairs than this and "fewer lines than pairs" would say little
MIN_PAIRS = 100


@contextmanager
def _repro_lines_run():
    """Count the lines executed in ``repro`` modules inside the block
    (this thread; frames of numpy and the standard library are not traced)."""
    executed = [0]
    source = str(ROOT)

    def count(frame, event, arg):
        if event == "line":
            executed[0] += 1
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename.startswith(source) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        yield executed
    finally:
        sys.settrace(previous)


@pytest.fixture(scope="module", params=["clean-clean", "dirty"])
def dataset(request):
    if request.param == "dirty":
        generated = load_dirty_dataset("D10K", seed=4, scale=0.08)
        return generated.collection, None, generated.ground_truth
    generated = load_benchmark("DblpAcm", seed=4, scale=0.1)
    return generated.first, generated.second, generated.ground_truth


@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_prepare_and_run_prune_without_a_per_pair_loop(dataset, monkeypatch, pruning):
    first, second, truth = dataset
    # a tight explicit budget, so that CEP cannot return early with everything
    kwargs = {"budget": 3} if pruning == "CEP" else {}
    algorithm = PRUNING_ALGORITHMS[pruning](**kwargs)
    pipeline = GeneralizedSupervisedMetaBlocking(pruning=algorithm, seed=3)
    calls = []
    prune = algorithm.prune

    def counted(probabilities, candidates, totals=None):
        with _repro_lines_run() as executed:
            mask = prune(probabilities, candidates, totals)
        valid = int(np.count_nonzero(np.asarray(probabilities) >= VALIDITY_THRESHOLD))
        calls.append((executed[0], valid))
        return mask

    monkeypatch.setattr(algorithm, "prune", counted)
    prepared = prepare_blocks(first, second)
    result = pipeline.run(
        prepared.blocks, prepared.candidates, truth, stats=prepared.statistics()
    )
    assert 0 < result.retained_count <= len(result.candidates)
    [(lines, valid)] = calls
    assert valid >= MIN_PAIRS
    assert lines < valid, f"{pruning} ran {lines} lines to prune {valid} valid pairs"


@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_retain_on_every_pair_runs_without_a_per_pair_loop(dataset, pruning):
    first, second, _ = dataset
    kwargs = {"budget": 3} if pruning == "CEP" else {}
    algorithm = PRUNING_ALGORITHMS[pruning](**kwargs)
    prepared = prepare_blocks(first, second)
    candidates = prepared.candidates
    weights = get_scheme("CBS").compute(candidates, prepared.statistics())[:, 0]
    totals = BlockTotals.of(prepared.blocks)
    with _repro_lines_run() as executed:
        mask = algorithm.retain(weights, candidates, totals)
    assert mask.dtype == bool and 0 < np.count_nonzero(mask) <= len(candidates)
    assert len(candidates) >= MIN_PAIRS
    assert executed[0] < len(candidates), (
        f"{pruning} ran {executed[0]} lines to retain among {len(candidates)} pairs"
    )
