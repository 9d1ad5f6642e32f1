"""Property test: run-wise bulk adoption rebuilds what the per-slot loop built.

``ShardReplica._adopt_state`` rebuilds a checkpoint's node space by maximal
same-side runs of live slots through ``_apply_bulk`` (tombstones for the gaps)
where it used to insert slot by slot.  Hypothesis drives the churn scripts of
``test_sharded_index`` — unilateral and bilateral, so sides interleave, with
removals and updates, so tombstones fall inside runs — through a journaled
index, draws the checkpoint mid-script, and holds every shard of K ∈ {1, 2, 3}
that adopts it against the deleted loop (``reference.reference_adopted_index``):
the full state it ships is array-for-array the oracle's, and so is the state
after both replayed the rest of the script from the WAL.

The shipped arrays and scalars, and the writer-only block vectors, totals and
degrees the insert path reads, are compared exactly: none of them is a float
sum carried across mutations, so one pass per run and one pass per slot must
produce the same bits.  ``epoch`` counts one replica's mutations (one per
run, not one per slot) and is the one scalar left out, as in
``tests/serve/test_consistency_property.py``.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_adopted_index
from repro.incremental import MutableBlockIndex
from repro.incremental.state import APPENDED
from repro.persistence import WriteAheadLog
from repro.persistence.snapshot import snapshot_state
from repro.serve import ShardReplica
from test_sharded_index import apply_script, churn_scripts

#: what only a writer holds, and the insert-time read sums over
WRITER_FIELDS = (
    "_block_sizes", "_block_cardinalities", "_inverse_block_cardinalities",
    "_inverse_block_sizes", "_degrees",
)


def assert_same_full_state(replica, oracle):
    shipped, expected = replica.index.export_state(), oracle.index.export_state()
    for name, _, _, _ in APPENDED:
        ours, theirs = shipped["arrays"][name], expected["arrays"][name]
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        np.testing.assert_array_equal(ours, theirs, err_msg=name)
    assert dict(shipped["meta"], epoch=None) == dict(expected["meta"], epoch=None)
    for field in WRITER_FIELDS:
        np.testing.assert_array_equal(
            getattr(replica.index, field).view(), getattr(oracle.index, field).view(), field
        )
    for name in ("num_nonempty_blocks", "total_cardinality", "num_pairs"):
        assert getattr(replica.index, name) == getattr(oracle.index, name), name
    assert replica.index.entity_ids_of(
        np.arange(replica.index.num_slots)
    ) == oracle.index.entity_ids_of(np.arange(oracle.index.num_slots))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), bilateral=st.booleans(), num_shards=st.sampled_from((1, 2, 3)))
def test_bulk_adoption_equals_the_per_slot_loop(data, bilateral, num_shards):
    steps = data.draw(churn_scripts(bilateral))
    cut = data.draw(st.integers(1, len(steps)))
    tmp = Path(tempfile.mkdtemp())
    try:
        index = MutableBlockIndex(bilateral=bilateral)
        wal = WriteAheadLog(tmp)
        index.attach_wal(wal)
        apply_script(index, steps[:cut])
        snapshot = wal.write_snapshot(snapshot_state(index, wal.log_offset))
        checkpoint = wal.log_offset
        apply_script(index, steps[cut:])
        final = wal.log_offset
        wal.close()
        state = wal.load_snapshot(snapshot)
        for shard in range(num_shards):
            replica = ShardReplica(tmp, shard, num_shards)
            replica.catch_up(checkpoint)
            assert replica.adopted_sequence == WriteAheadLog._snapshot_sequence(snapshot)
            assert replica.follower.records_delivered == 0  # adopted, nothing replayed

            oracle = ShardReplica(tmp, shard, num_shards)
            oracle.index = reference_adopted_index(state, shard, num_shards)
            oracle.bilateral = bilateral
            oracle.follower.seek_to(checkpoint)
            assert_same_full_state(replica, oracle)

            # the rest of the script, replayed from the WAL by both
            replica.catch_up(final)
            oracle.catch_up(final)
            assert replica.follower.records_delivered == oracle.follower.records_delivered
            assert_same_full_state(replica, oracle)
            replica.close()
            oracle.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
