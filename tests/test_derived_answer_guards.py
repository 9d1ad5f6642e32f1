"""The exact answer reads the CSR, not a pair registry — and stays that way.

AST walks over ``src/repro`` (nothing imported but the schema table), the
shape of ``test_import_layering.py``: no read-side module names the pair
registry, the merged pair union and its cache are gone from the tree, the
shipped schema carries no registry array, and the reduce pass has one door —
the shared reduction of :mod:`repro.weights.sparse` — so the next engine
cannot grow a third tail around it.  And the writer-only registry itself is
gone: nothing in the tree names it or its position plumbing, and neither an
index after churn nor a shard replica that followed a log holds any of it.
"""

import ast

from repro.datamodel import make_profile
from repro.incremental import MutableBlockIndex
from repro.incremental.state import APPENDED
from repro.persistence import WriteAheadLog
from repro.serve.workers import ShardReplica

from test_import_layering import ROOT, _parse

REGISTRY_READS = {"live_pairs", "live_pair_positions"}
REGISTRY_NAMES = {"pair_left", "pair_right", "pair_alive"}
REGISTRY_FIELDS = {f"_{name}" for name in REGISTRY_NAMES}
#: the registry's position plumbing, which no module may name again
REGISTRY_PLUMBING = {
    "pair_positions",
    "live_pair_positions",
    "num_registered_pairs",
    "_pair_position",
    "_register_pairs",
    "_sync_pair_positions",
    "remap_positions",
}
#: what a MutableBlockIndex held for the registry
REGISTRY_ATTRIBUTES = REGISTRY_FIELDS | {"_pair_keys", "_pair_position", "_pair_synced"}


def _function(path, name):
    (found,) = [
        node
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return found


def _registry_mentions(tree):
    """Line numbers under ``tree`` that call a registry read, touch a registry
    field or spell a registry wire name (``<name>_tail`` included)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named = node.attr in REGISTRY_READS | REGISTRY_FIELDS
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            named = node.value.removesuffix("_tail") in REGISTRY_NAMES
        else:
            named = False
        if named:
            lines.append(node.lineno)
    return lines


def test_no_read_side_code_names_the_pair_registry():
    read_side = {
        str(path.relative_to(ROOT)): _parse(path)
        for path in sorted((ROOT / "serve").rglob("*.py"))
    }
    for module in ("incremental/delta.py", "incremental/state.py", "incremental/sharded.py"):
        read_side[module] = _parse(ROOT / module)
    read_side["exact_answer"] = _function(ROOT / "incremental" / "session.py", "exact_answer")
    read_side["retained"] = _function(ROOT / "incremental" / "session.py", "retained")
    offenders = {
        where: lines for where, tree in read_side.items() if (lines := _registry_mentions(tree))
    }
    assert not offenders, f"derive the live pairs from the CSR: {offenders}"


def test_the_merged_pair_union_is_gone_from_the_tree():
    gone = ("_merged_pairs", "_pairs_cache", "dead_pair_positions", "canonical_candidates")
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for name in gone
        if name in path.read_text()
    ]
    assert not offenders, offenders


def test_no_registry_array_is_shipped():
    names = [name for name, _, _, _ in APPENDED]
    assert names == ["indptr", "indices", "sides"]
    assert not [name for name in names if name.startswith("pair_")]


def test_the_reduce_pass_is_entered_through_the_shared_reduction_only():
    callers = {}
    for path in sorted(ROOT.rglob("*.py")):
        for function in ast.walk(_parse(path)):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                called = node.func if isinstance(node, ast.Call) else None
                name = getattr(called, "id", getattr(called, "attr", None))
                if name == "reduce_pair_cooccurrence":
                    callers.setdefault(str(path.relative_to(ROOT)), set()).add(function.name)
    assert callers == {"weights/sparse.py": {"compute_pair_cooccurrence", "reduce_memberships"}}
    # ... and neither engine imports it to call it some other way
    for module in ("blocking/arrayops.py", "incremental/state.py", "incremental/delta.py"):
        assert "reduce_pair_cooccurrence" not in (ROOT / module).read_text(), module


def _spelled_names(tree):
    """``(name, line)`` of every identifier, attribute, definition, argument,
    keyword and exact string constant under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def test_nothing_in_the_tree_names_the_registry_plumbing():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(ROOT.rglob("*.py"))
        for name, line in _spelled_names(_parse(path))
        if name in REGISTRY_PLUMBING
    ]
    assert not offenders, offenders


def _registry_attributes(index):
    return sorted(
        name for name in REGISTRY_ATTRIBUTES if name in vars(index) or hasattr(index, name)
    )


def _churn(index):
    for serial in range(12):
        index.add_entity(make_profile(f"e{serial}", t=f"alpha tok{serial % 3}"), side=serial % 2)
    index.remove_entity("e4", side=0)
    index.update_entity(make_profile("e5", t="beta tok1"), side=1)
    index.add_entities_bulk([make_profile("b0", t="alpha"), make_profile("b1", t="tok2")])


def test_an_index_after_churn_holds_no_registry():
    index = MutableBlockIndex(bilateral=True)
    _churn(index)
    assert index.num_pairs == len(index.candidate_set()) > 0
    assert not _registry_attributes(index)
    index.compact()
    assert not _registry_attributes(index)


def test_a_replica_that_followed_a_log_holds_no_registry(tmp_path):
    authority = MutableBlockIndex(bilateral=True)
    wal = WriteAheadLog(tmp_path / "wal")
    authority.attach_wal(wal)
    _churn(authority)
    end = wal.log_offset
    wal.close()
    replica = ShardReplica(tmp_path / "wal", shard=0, num_shards=2)
    try:
        replica.catch_up(end)
        assert replica.index is not None and replica.index.num_entities == authority.num_entities
        assert not _registry_attributes(replica.index)
    finally:
        replica.close()
