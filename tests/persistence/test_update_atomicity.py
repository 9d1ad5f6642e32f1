"""An update is one WAL record: a crash can never tear it.

``MatchingSession.update`` used to journal a ``remove`` and an ``add``; a
crash between the two recovered a session in which the entity was *gone* —
a state no client asked for.  It journals one ``"update"`` record now, so
for a crash at **every byte** inside what an update wrote, recovery yields
the old version or the new one, never neither — for a bare session and
through the serving daemon's ``update`` op.
"""

import shutil
import threading

from reference import make_frozen_model
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.persistence import WriteAheadLog

FEATURE_SET = ("CBS", "JS", "RS")


MODEL = make_frozen_model(FEATURE_SET)

OLD = make_profile("b0", text="gamma eps zeta")
NEW = make_profile("b0", text="delta omega")
OTHERS = (
    (make_profile("a0", text="alpha beta gamma"), 0),
    (make_profile("a1", text="alpha delta eps"), 0),
    (make_profile("b1", text="alpha beta zeta"), 1),
)


def _reference(version):
    """Entities / pairs / retained set of the collection holding ``version``."""
    session = MatchingSession(MODEL, bilateral=True)
    for profile, side in OTHERS:
        session.insert(profile, side=side)
    session.insert(version, side=1)
    return _state(session)


def _state(session):
    return (
        session.num_entities,
        session.num_pairs,
        sorted(session.retained().retained_ids),
    )


def _sweep(saved, begin, end, workdir):
    """Recover from ``saved`` with its log cut at every byte in ``(begin, end]``;
    return how many cuts recovered the old version and how many the new."""
    old, new = _reference(OLD), _reference(NEW)
    assert old != new
    seen = {"old": 0, "new": 0}
    for cut in range(begin + 1, end + 1):
        copy = workdir / f"crash-{cut}"
        shutil.copytree(saved, copy)
        with open(copy / "wal.log", "r+b") as log:
            log.truncate(cut)
        recovered = MatchingSession.recover(copy)
        try:
            assert recovered.index.has_entity("b0", side=1), (
                f"a crash at byte {cut} lost the updated entity"
            )
            state = _state(recovered)
        finally:
            recovered.close()
        shutil.rmtree(copy)
        assert state in (old, new), f"a crash at byte {cut} recovered neither version"
        seen["new" if state == new else "old"] += 1
    return seen


def test_a_session_update_is_one_record(tmp_path):
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path / "wal")
    try:
        session.insert(OLD, side=1)
        before = session.wal.log_offset
        session.update(NEW, side=1)
        after = session.wal.log_offset
    finally:
        session.close()
    records = [
        entry.record
        for entry in WriteAheadLog(tmp_path / "wal").scan().records
        if entry.start >= before
    ]
    assert [record["op"] for record in records] == ["update"]
    assert after > before


def test_a_crash_inside_a_session_update_recovers_old_or_new(tmp_path):
    session = MatchingSession(MODEL, bilateral=True, wal_path=tmp_path / "wal")
    try:
        for profile, side in OTHERS:
            session.insert(profile, side=side)
        session.insert(OLD, side=1)
        before = session.wal.log_offset
        session.update(NEW, side=1)
        after = session.wal.log_offset
    finally:
        session.close()
    seen = _sweep(tmp_path / "wal", before, after, tmp_path)
    # only the complete record is the new version; every torn one is the old
    assert seen == {"old": after - before - 1, "new": 1}


def test_a_crash_inside_a_served_update_recovers_old_or_new(tmp_path):
    from repro.serve import MatchingDaemon, ServeClient

    daemon = MatchingDaemon(tmp_path / "wal", MODEL, num_shards=2, bilateral=True)
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    try:
        with ServeClient(*daemon.address) as client:
            for profile, side in OTHERS:
                client.insert(profile, side=side)
            before = client.insert(OLD, side=1)["offset"]
            after = client.update(NEW, side=1)["offset"]
            assert client.match()["offset"] == after
            # every acked write is fsynced: a copy of the idle directory is
            # what a crash right now would leave behind
            shutil.copytree(tmp_path / "wal", tmp_path / "saved")
    finally:
        daemon.request_shutdown()
        thread.join(60)
        assert not thread.is_alive()
    seen = _sweep(tmp_path / "saved", before, after, tmp_path)
    assert seen == {"old": after - before - 1, "new": 1}
