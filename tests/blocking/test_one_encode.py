"""One encode, one key budget, no cache: block preparation's guard rails.

Tokenisation used to walk the tokens in Python twice — a regex ``findall``
per profile, then ``dict.setdefault`` per occurrence, the latter in two
copies.  There is one encode kernel now
(:func:`repro.blocking.arrayops.encode_signatures`), the tokeniser is a byte
table, every packed membership key asks :func:`repro.pairs.key_field_bits`,
and nothing is remembered between two preparations of the same collections
(the perf ledger calls ``prepare_blocks`` on the same objects every round).
"""

import ast
from unittest import mock

import numpy as np
import pytest

import repro.blocking.token_blocking as token_blocking
from repro import pairs
from repro.blocking import TokenBlocking, prepare_blocks
from repro.blocking.arrayops import _dictionary_encode, assemble_blocks, filter_matrix
from repro.datasets import load_benchmark
from test_import_layering import ROOT, _imported_names, _parse


def _attribute_uses(path, name):
    return [
        node.lineno
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == name
    ]


def test_the_encode_is_spelled_once():
    defined = [
        str(path.relative_to(ROOT))
        for path in sorted(ROOT.rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.FunctionDef) and node.name == "encode_signatures"
    ]
    assert defined == ["blocking/arrayops.py"]
    spelled = _attribute_uses(ROOT / "blocking" / "arrayops.py", "setdefault")
    assert not spelled, f"arrayops.py encodes by hand at lines {spelled}"


def test_the_tokeniser_compiles_no_regex():
    text = ROOT / "utils" / "text.py"
    assert "re" not in _imported_names(text)
    assert not _attribute_uses(text, "compile")


@pytest.fixture(scope="module")
def collections():
    dataset = load_benchmark("DblpAcm", seed=4, scale=0.05)
    return dataset.first, dataset.second


def _key_bits(*extents):
    return sum(pairs.key_field_bits(*extents))


def test_the_code_node_pack_asks_the_key_budget(collections):
    matrix = assemble_blocks(TokenBlocking(), *collections)
    signatures = _dictionary_encode(TokenBlocking(), *collections)[2]
    needed = _key_bits(len(signatures), matrix.index_space.total)
    with mock.patch.object(pairs, "KEY_BITS", needed):
        fitted = assemble_blocks(TokenBlocking(), *collections)
    assert fitted.keys == matrix.keys and np.array_equal(fitted.nodes, matrix.nodes)
    with mock.patch.object(pairs, "KEY_BITS", needed - 1):
        with pytest.raises(OverflowError) as refused:
            assemble_blocks(TokenBlocking(), *collections)
    assert f"{len(signatures)} x {matrix.index_space.total}" in str(refused.value)


def test_the_node_rank_pack_asks_the_key_budget(collections):
    matrix = assemble_blocks(TokenBlocking(), *collections)
    filtered = filter_matrix(matrix, 0.5)
    assert 0 < filtered.nodes.size < matrix.nodes.size
    needed = _key_bits(matrix.index_space.total, matrix.num_blocks)
    with mock.patch.object(pairs, "KEY_BITS", needed):
        fitted = filter_matrix(matrix, 0.5)
    assert fitted.keys == filtered.keys and np.array_equal(fitted.nodes, filtered.nodes)
    with mock.patch.object(pairs, "KEY_BITS", needed - 1):
        with pytest.raises(OverflowError) as refused:
            filter_matrix(matrix, 0.5)
    assert f"{matrix.index_space.total} x {matrix.num_blocks}" in str(refused.value)


def test_two_preparations_do_the_same_work_twice(collections, monkeypatch):
    """Nothing is memoised on a profile, a collection or the blocking method."""
    calls = []

    def counted(text, *args):
        calls.append(text)
        return tokens(text, *args)

    tokens = token_blocking.tokens
    assert not hasattr(tokens, "cache_info")
    monkeypatch.setattr(token_blocking, "tokens", counted)
    method = TokenBlocking()
    watched = [method, *collections, *collections[0], *collections[1]]
    before = [sorted(vars(item)) for item in watched]
    profiles = len(collections[0]) + len(collections[1])
    for round_number in (1, 2):
        prepared = prepare_blocks(*collections, blocking=method)
        assert len(prepared.candidates) > 0
        assert len(calls) == round_number * profiles
        assert [sorted(vars(item)) for item in watched] == before
