"""No pruning algorithm walks the pairs in Python: no queue is ever built.

CEP / CNP / RCNP used to push every valid pair through a
:class:`~repro.utils.pqueue.BoundedTopQueue` (one per node for the node-centric
ones).  They are array passes now (``repro.core.pruning.kernels``), the queue
has no user left under ``src/`` (its last one, the streaming session's online
top-K policy, is gone: it stays as the queue under ``tests/reference.py``'s
oracle), and the strict (weight, key, position) order every selection runs
under is spelled once.
"""

import ast

import numpy as np
import pytest

from test_import_layering import ROOT, _imported_names, _parse
from repro.blocking import prepare_blocks
from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
from repro.core.pruning import PRUNING_ALGORITHMS
from repro.datasets import load_benchmark, load_dirty_dataset
from repro.metablocking import (
    UnsupervisedBLAST,
    UnsupervisedCEP,
    UnsupervisedCNP,
    UnsupervisedRCNP,
    UnsupervisedRWNP,
    UnsupervisedWEP,
    UnsupervisedWNP,
    build_blocking_graph,
)
from repro.utils.pqueue import BoundedTopQueue


def _forbid_queues(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a BoundedTopQueue was built while pruning")

    monkeypatch.setattr(BoundedTopQueue, "__init__", refuse)


@pytest.fixture(scope="module", params=["clean-clean", "dirty"])
def dataset(request):
    if request.param == "dirty":
        generated = load_dirty_dataset("D10K", seed=4, scale=0.08)
        return generated.collection, None, generated.ground_truth
    generated = load_benchmark("DblpAcm", seed=4, scale=0.1)
    return generated.first, generated.second, generated.ground_truth


@pytest.mark.parametrize("pruning", sorted(PRUNING_ALGORITHMS))
def test_run_on_collections_builds_no_queue(dataset, monkeypatch, pruning):
    first, second, truth = dataset
    # a tight explicit budget, so that CEP cannot return early with everything
    kwargs = {"budget": 3} if pruning == "CEP" else {}
    pipeline = GeneralizedSupervisedMetaBlocking(
        pruning=PRUNING_ALGORITHMS[pruning](**kwargs), seed=3
    )
    _forbid_queues(monkeypatch)
    result = pipeline.run_on_collections(first, second, truth)
    assert 0 < result.retained_count <= len(result.candidates)


@pytest.mark.parametrize(
    "algorithm",
    [
        UnsupervisedWEP(),
        UnsupervisedWNP(),
        UnsupervisedRWNP(),
        UnsupervisedBLAST(),
        UnsupervisedCEP(budget=3),
        UnsupervisedCNP(),
        UnsupervisedRCNP(),
    ],
    ids=lambda algorithm: algorithm.name,
)
def test_unsupervised_pruning_builds_no_queue(dataset, monkeypatch, algorithm):
    first, second, _ = dataset
    prepared = prepare_blocks(first, second)
    graph = build_blocking_graph(prepared.blocks, candidates=prepared.candidates, csr=prepared.csr)
    _forbid_queues(monkeypatch)
    mask = algorithm.prune(graph, prepared.blocks)
    assert mask.dtype == bool and 0 < np.count_nonzero(mask) <= graph.edge_count


def test_the_queue_has_no_src_user():
    importers = sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.rglob("*.py")
        if any(
            name == "BoundedTopQueue" or "pqueue" in module
            for name, module in _imported_names(path).items()
        )
    )
    assert importers == []


def test_the_strength_order_is_spelled_once():
    defined = [
        str(path.relative_to(ROOT))
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "strength_order"
    ]
    assert defined == ["core/pruning/kernels.py"]
    router = ROOT / "serve" / "router.py"
    assert _imported_names(router).get("strength_order") == "repro.core.pruning"
    spelled = [
        node.lineno
        for node in ast.walk(_parse(router))
        if isinstance(node, ast.Attribute) and node.attr == "lexsort"
    ]
    assert not spelled, f"serve/router.py sorts by hand at lines {spelled}"
