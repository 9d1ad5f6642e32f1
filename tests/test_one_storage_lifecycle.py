"""One storage lifecycle: an index is compacted and recovered only through a
session snapshot.

A :class:`~repro.incremental.MatchingSession` writes its index compacted into
every snapshot (``compacted_state``) and recovery adopts it
(``recover_session`` -> ``build_index_from_state`` -> ``adopt_compacted``).
Beside that path stood two that nothing but the tests called: in-place
compaction (``MutableBlockIndex.compact`` / ``MatchingSession.compact``, the
``generation`` counter and ``StaleSessionError``) and bare-index recovery
(``recover_index``, ``apply_logged_record`` and the meta-record bootstrap).
With them went the serving fleet's test-only seams — a replica's pinned
``bootstrap`` snapshot, the daemon's ``drain_timeout`` argument — and the
``unavailable`` error no ``stats`` could answer.  An AST walk over
``src/repro``, the shape of the other deletion guards, keeps them gone; a
session recovered from a torn log shows the path that stays.
"""

import ast
import inspect

import pytest

from reference import make_frozen_model, reference_replay
from repro import incremental, persistence, serve
from repro.datamodel import make_profile
from repro.incremental import DeltaFeatureGenerator, MatchingSession
from repro.incremental.session import exact_answer
from repro.serve import ShardReplica, ShardRouter, ShardWorkerHandle
from repro.serve.workers import shard_worker_main
from test_derived_answer_guards import _spelled_names
from test_import_layering import ROOT, _parse

#: the names of the two storage paths and the fleet's test-only seams
GONE = {
    "generation",
    "_generation",
    "StaleSessionError",
    "_check_generation",
    "recover_index",
    "apply_logged_record",
    "_base_state",
    "_load_bootstrap",
    "drain_timeout",
    "UnavailableError",
    "ERROR_UNAVAILABLE",
}
#: in-place compaction: neither defined nor called
GONE_CALLABLES = {"compact"}


def _callee(node: ast.Call):
    function = node.func
    if isinstance(function, ast.Attribute):
        return function.attr
    return function.id if isinstance(function, ast.Name) else None


def _offenders(tree: ast.AST):
    named = [(line, name) for name, line in _spelled_names(tree) if name in GONE]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in GONE_CALLABLES:
            named.append((node.lineno, f"def {node.name}"))
        elif isinstance(node, ast.Call) and _callee(node) in GONE_CALLABLES:
            named.append((node.lineno, f"{_callee(node)}()"))
    return named


def test_the_guard_sees_code():
    code = '''
class StaleSessionError(RuntimeError): ...
def compact(self):
    self.generation += 1
index.compact()
recover_index(path, resume=True)
"a compact() in prose, a generation of sessions"
compacted = index.compacted_state()
'''
    assert sorted(_offenders(ast.parse(code))) == [
        (2, "StaleSessionError"),
        (3, "def compact"),
        (4, "generation"),
        (5, "compact()"),
        (6, "recover_index"),
    ]


def test_no_module_names_a_second_storage_path():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in _offenders(_parse(path))
    ]
    assert not offenders, offenders


@pytest.mark.parametrize("package", [incremental, persistence, serve], ids=lambda p: p.__name__)
def test_no_package_exports_them(package):
    assert not GONE & set(package.__all__)
    for name in GONE:
        assert not hasattr(package, name)


@pytest.mark.parametrize(
    "entry_point",
    [ShardReplica, shard_worker_main, ShardWorkerHandle, ShardRouter],
    ids=lambda entry_point: entry_point.__name__,
)
def test_no_fleet_entry_point_takes_a_bootstrap_snapshot(entry_point):
    assert "bootstrap" not in inspect.signature(entry_point).parameters


def test_a_session_recovered_from_a_torn_log_answers_the_oracle(tmp_path):
    """Cut mid-record behind the last checkpoint, the log recovers to the
    records that survived whole — the answer of a fresh index replaying
    exactly those."""
    session = MatchingSession(make_frozen_model(), bilateral=True, wal_path=tmp_path / "wal")
    texts = ("alpha beta", "beta gamma", "alpha gamma", "gamma delta", "delta beta")
    for serial, text in enumerate(texts):
        session.insert(make_profile(f"a{serial}", text=text), side=0)
        session.insert(make_profile(f"b{serial}", text=text), side=1)
    session.remove("a1", side=0)
    session.checkpoint()
    session.update(make_profile("b2", text="alpha delta"), side=1)
    session.insert(make_profile("a9", text="beta delta"), side=0)
    session.close()

    scan = session.wal.scan()
    last = scan.records[-1]
    log = session.wal.log_path
    log.write_bytes(log.read_bytes()[: last.start + (last.end - last.start) // 2])
    surviving = [entry.record for entry in scan.records[:-1]]

    recovered = MatchingSession.recover(tmp_path / "wal")
    try:
        assert not recovered.index.has_entity("a9", side=0)
        oracle = reference_replay(surviving)
        features = DeltaFeatureGenerator(oracle, recovered.model.feature_set)
        candidates, _, mask = exact_answer(features, recovered.model, recovered.pruning)
        expected = set(candidates.id_pairs(mask, oracle.entity_id))
        assert recovered.retained().retained_id_set() == expected
    finally:
        recovered.close()
