"""One online policy: the top-K queue policy, and everything that chose
between two policies, are gone.

The per-insert online answer is the WEP running threshold
(:class:`~repro.incremental.session.OnlineWEP`); the exact answer never read
it.  The second policy (a bounded top-K queue with lazy deletion), the base
class and registry that let a caller pick one, the ``online=`` / ``top_k=``
arguments and the ``--online`` / ``--top-k`` flags, and the key-addressed
policy state that compaction and recovery had to remap and check had no
caller outside the tests.  An AST walk over ``src/repro``, the shape of the
other deletion guards, keeps them gone; the queue itself has no ``src/``
importer left (``tests/core/test_no_per_pair_pruning.py``).  A snapshot an
older tree wrote with the top-K policy is refused by name
(``tests/persistence/test_session_wal.py``).
"""

import ast
import inspect

import pytest

from reference import make_frozen_model
from repro.cli import build_parser
from repro.datamodel import make_profile
from repro.incremental import MatchingSession, replay_stream
from repro.persistence import WriteAheadLog
from repro.serve import MatchingDaemon
from test_derived_answer_guards import _spelled_names
from test_import_layering import ROOT, _parse

#: the names that existed only to hold or choose a second online policy
GONE = {
    "OnlineTopK",
    "OnlinePruningPolicy",
    "ONLINE_POLICIES",
    "_resolve_online_policy",
    "online_policy_class",
    "_require_live",
}
#: the queue's lazy deletion (``set.discard`` is still spelled: only a
#: definition counts)
GONE_DEFINITIONS = {"discard"}


def _offenders(tree: ast.AST):
    named = [(line, name) for name, line in _spelled_names(tree) if name in GONE]
    return named + [
        (node.lineno, f"def {node.name}")
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in GONE_DEFINITIONS
    ]


def test_the_guard_sees_code():
    code = '''
class OnlineTopK(OnlinePruningPolicy):
    def discard(self, item): ...
policy = ONLINE_POLICIES["topk"]
seen.discard(item)
'''
    assert sorted(_offenders(ast.parse(code))) == [
        (2, "OnlinePruningPolicy"),
        (2, "OnlineTopK"),
        (3, "def discard"),
        (4, "ONLINE_POLICIES"),
    ]


def test_no_module_names_a_second_online_policy():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for line, name in _offenders(_parse(path))
    ]
    assert not offenders, offenders


@pytest.mark.parametrize(
    "entry_point",
    [MatchingSession, MatchingSession._from_parts, replay_stream, MatchingDaemon],
    ids=lambda entry_point: entry_point.__qualname__,
)
def test_no_session_replay_or_daemon_takes_a_policy_choice(entry_point):
    assert not {"online", "top_k"} & set(inspect.signature(entry_point).parameters)


@pytest.mark.parametrize(
    "command,flag,value",
    [
        (["stream"], "--online", "wep"),
        (["stream"], "--top-k", "5"),
        (["serve", "--wal", "unused"], "--online", "wep"),
        (["serve", "--wal", "unused"], "--top-k", "5"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_the_policy_flags_are_gone(capsys, command, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(command + [flag, value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_the_packages_export_no_second_policy():
    with pytest.raises(ImportError):
        from repro.incremental import OnlineTopK  # noqa: F401
    with pytest.raises(ImportError):
        from repro.incremental import OnlinePruningPolicy  # noqa: F401
    with pytest.raises(ImportError):
        from repro.utils import BoundedTopQueue  # noqa: F401


def test_a_session_snapshot_stores_the_wep_aggregate_and_no_policy_choice(tmp_path):
    session = MatchingSession(make_frozen_model(("CBS", "JS", "RS")), wal_path=tmp_path / "wal")
    for serial in range(6):
        session.insert(make_profile(f"e{serial}", t=f"common tok{serial % 2}"))
    session.remove("e1")
    path = session.checkpoint()
    session.close()
    stored = WriteAheadLog(tmp_path / "wal").load_snapshot(path)["session"]
    assert "policy" not in stored and "top_k" not in stored
    assert stored["policy_state"] == session.online.export_state()
    assert set(stored["policy_state"]) == {"valid_sum", "valid_count"}
