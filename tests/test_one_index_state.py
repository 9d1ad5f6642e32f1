"""One index state, one read surface: what an index holds at run time.

The read state of a streaming index — three arrays and a few scalars — is
declared once, in :mod:`repro.incremental.state`, and read through one type;
what the layers above may not name is in ``tests/test_guards.py``.  These
checks look at live objects: the schema's three arrays are what an index
exports, and neither a writer, a receiver, an index after churn nor a shard
replica that followed a log holds a derived aggregate or the pair registry
no index has kept since the exact answer began reading the CSR.
"""

import pytest

from repro.datamodel import make_profile
from repro.incremental import IndexState, MutableBlockIndex
from repro.incremental.state import APPENDED
from repro.persistence import WriteAheadLog
from repro.serve.workers import ShardReplica

pytestmark = pytest.mark.equivalence

#: the per-entity aggregates and the assignment total that used to be
#: maintained under every mutation, shipped and snapshotted
DERIVED = (
    "_blocks_per_entity",
    "_entity_cardinality",
    "_entity_inv_cardinality",
    "_entity_inv_size",
    "total_block_assignments",
    "block_totals",
)
#: what a MutableBlockIndex held for the pair registry
REGISTRY_ATTRIBUTES = (
    "_pair_left", "_pair_right", "_pair_alive", "_pair_keys", "_pair_position", "_pair_synced",
)


def test_the_schema_is_three_arrays():
    """The wire and field names the guard table pins, and no registry array."""
    assert [(name, field) for name, field, _, _ in APPENDED] == [
        ("indptr", "_indptr"), ("indices", "_indices"), ("sides", "_sides"),
    ]
    assert set(MutableBlockIndex().export_state()["arrays"]) == {"indptr", "indices", "sides"}


def test_derived_statistics_are_not_held():
    for state in (MutableBlockIndex(bilateral=True), IndexState(bilateral=True)):
        assert not [name for name in DERIVED if hasattr(state, name)]


def test_the_replacements_are_exported():
    import repro.incremental

    for name in ("IndexState", "IndexStatistics", "MergedIndexView"):
        assert name in repro.incremental.__all__ and hasattr(repro.incremental, name)


def _registry_attributes(index):
    return sorted(name for name in REGISTRY_ATTRIBUTES if hasattr(index, name))


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
