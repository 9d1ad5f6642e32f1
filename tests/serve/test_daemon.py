"""Integration tests for the matching daemon.

The daemon runs in-process (one asyncio loop on a background thread, real
shard worker processes, real sockets), and every consistency claim is
checked against the strongest available reference: the canonical offline
session recovered from a *truncated copy* of the daemon's own WAL — the
state at exactly the pinned offset a response reported.

The SIGTERM test runs the real ``python -m repro serve`` subprocess and
kills it mid-ingest: the daemon must drain, checkpoint and exit 0, and
recovery must retain every acknowledged write.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from reference import reference_retained
from repro.datamodel import make_profile
from repro.incremental import MatchingSession
from repro.persistence.recovery import recover_session
from repro.serve import MatchingDaemon, ProtocolError, ServeClient, ServeError
from repro.serve.protocol import FRAME_HEADER, read_message_from

TEXTS = (
    "alpha beta gamma",
    "beta gamma delta",
    "alpha delta eps",
    "gamma eps zeta",
    "beta eps zeta",
    "alpha beta zeta",
    "delta eps",
    "alpha gamma zeta",
)


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    return thread


def _stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(60)
    assert not thread.is_alive(), "daemon did not shut down"


@pytest.fixture()
def served(tmp_path, frozen_model):
    """A started daemon and the thread serving it."""
    daemon = MatchingDaemon(
        tmp_path / "wal", frozen_model, num_shards=2, bilateral=True
    )
    thread = _start(daemon)
    yield daemon, thread
    if thread.is_alive():
        _stop(daemon, thread)


@pytest.fixture()
def daemon(served):
    return served[0]


def _canonical_at(wal_dir: Path, offset: int, scratch: Path):
    """The canonical session state at exactly ``offset``: recover from a
    truncated copy of the log plus the bootstrap snapshot (written before
    any ingest, so its embedded offset is behind every pin)."""
    ref_dir = scratch / f"ref-{offset}"
    ref_dir.mkdir()
    (ref_dir / "wal.log").write_bytes(
        (wal_dir / "wal.log").read_bytes()[:offset]
    )
    shutil.copy(wal_dir / "snapshot-000001.snap", ref_dir)
    session = recover_session(ref_dir)
    try:
        return reference_retained(session)
    finally:
        session.close()


class TestBasicOperations:
    def test_ping_reports_protocol(self, daemon):
        with ServeClient(*daemon.address) as client:
            info = client.ping()
        assert info["protocol"] == 2
        assert info["shards"] == 2

    def test_mutations_and_reads(self, daemon):
        with ServeClient(*daemon.address) as client:
            first = client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            assert first["num_new_pairs"] == 0
            bulk = client.insert_bulk(
                [make_profile(f"a{i}", text=TEXTS[i]) for i in (1, 2)], side=0
            )
            assert bulk["entity_ids"] == ["a1", "a2"]
            for i in (0, 1, 2):
                client.insert(make_profile(f"b{i}", text=TEXTS[i + 3]), side=1)
            removed = client.remove("a1", side=0)
            assert removed["num_retracted_pairs"] >= 0
            updated = client.update(make_profile("b0", text=TEXTS[6]), side=1)
            assert updated["entity_id"] == "b0"

            answer = client.match()
            assert answer["offset"] == updated["offset"]
            top = client.top_k("a0", side=0, k=3)
            assert all(m["side"] == 1 for m in top["matches"])
            assert [m["probability"] for m in top["matches"]] == sorted(
                (m["probability"] for m in top["matches"]), reverse=True
            )

    def test_read_your_writes_offsets_are_monotone(self, daemon):
        with ServeClient(*daemon.address) as client:
            offsets = []
            for i, text in enumerate(TEXTS[:4]):
                offsets.append(
                    client.insert(make_profile(f"a{i}", text=text), side=0)["offset"]
                )
                offsets.append(client.match()["offset"])
            assert offsets == sorted(offsets)
            # a match directly after an insert sees that insert
            assert offsets[-1] == offsets[-2]

    def test_stats_endpoint(self, daemon):
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            client.insert(make_profile("b0", text=TEXTS[0]), side=1)
            client.match()
            stats = client.stats()
        assert stats["daemon"]["entities"] == 2
        assert stats["daemon"]["num_shards"] == 2
        assert len(stats["shards"]) == 2
        assert all(s["offset"] == stats["daemon"]["wal_offset"] for s in stats["shards"])
        operations = stats["metrics"]["operations"]
        assert operations["insert"]["count"] == 2
        assert operations["match"]["count"] == 1
        assert stats["metrics"]["connections"]["open"] == 1

    def test_bulk_insert_yields_the_canonical_state(self, daemon):
        """Bulk ingest tokenizes inline and answers what recovery rebuilds."""
        with ServeClient(*daemon.address) as client:
            bulk = client.insert_bulk(
                [make_profile(f"a{i}", text=text) for i, text in enumerate(TEXTS)],
                side=0,
            )
            assert bulk["entity_ids"] == [f"a{i}" for i in range(len(TEXTS))]
            for i, text in enumerate(TEXTS):
                client.insert(make_profile(f"b{i}", text=text), side=1)
            answer = client.match()
        session = recover_session(daemon.wal_path)
        try:
            assert answer["retained"] == reference_retained(session)
        finally:
            session.close()

    def test_checkpoint_writes_snapshot(self, daemon):
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            result = client.checkpoint()
        assert Path(result["snapshot"]).exists()


class TestReadView:
    """``match`` / ``top_k`` answer from the daemon's read view: the mutation
    thread advances it, the read thread answers over it."""

    def test_a_write_is_applied_while_a_read_is_answered(self, daemon):
        """The answer runs off the mutation thread: an insert is acknowledged
        while a ``match`` is held inside its exact read, and that ``match``
        answers the state it pinned before the insert."""
        entered, release = threading.Event(), threading.Event()
        compute = daemon._shared_read.compute

        def held_open(*args):
            entered.set()
            assert release.wait(30), "the read was never released"
            return compute(*args)

        daemon._shared_read.compute = held_open
        answers = []

        def read():
            with ServeClient(*daemon.address) as reader:
                answers.append(reader.match())

        reader_thread = threading.Thread(target=read, daemon=True)
        try:
            with ServeClient(*daemon.address, timeout=10) as writer:
                for i in (0, 1, 2):
                    writer.insert(make_profile(f"a{i}", text=TEXTS[i]), side=0)
                    before = writer.insert(make_profile(f"b{i}", text=TEXTS[i]), side=1)
                expected = reference_retained(daemon.session)
                reader_thread.start()
                assert entered.wait(30), "the read never reached its exact read"
                after = writer.insert(make_profile("a9", text=TEXTS[3]), side=0)
                assert after["offset"] > before["offset"]
                assert not answers
                release.set()
                reader_thread.join(30)
                assert not reader_thread.is_alive()
                (held,) = answers
                assert held["offset"] == before["offset"]
                assert held["retained"] == expected
                fresh = writer.match()
                assert fresh["offset"] == after["offset"]
                assert fresh["retained"] == reference_retained(daemon.session)
        finally:
            release.set()
            if reader_thread.ident is not None:
                reader_thread.join(30)

    def test_a_removed_entity_leaves_every_read(self, daemon):
        with ServeClient(*daemon.address) as client:
            for i in (0, 1, 2):
                client.insert(make_profile(f"a{i}", text=TEXTS[i]), side=0)
                client.insert(make_profile(f"b{i}", text=TEXTS[i + 1]), side=1)
            # the view is warm: the remove reaches it as a delta
            assert client.top_k("a1", side=0, k=10)["matches"]
            client.remove("b0", side=1)
            with pytest.raises(ServeError) as excinfo:
                client.top_k("b0", side=1)
            assert excinfo.value.error_type == "unknown_entity"
            matches = client.top_k("a1", side=0, k=10)["matches"]
            assert "b0" not in {match["entity_id"] for match in matches}
            retained = client.match()["retained"]
            assert not any("b0" in pair[:2] for pair in retained)
            assert retained == reference_retained(daemon.session)


class TestErrorPaths:
    def test_unknown_entity(self, daemon):
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.remove("ghost")
            assert excinfo.value.error_type == "unknown_entity"

    def test_duplicate_entity(self, daemon):
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            with pytest.raises(ServeError) as excinfo:
                client.insert(make_profile("a0", text=TEXTS[1]), side=0)
            assert excinfo.value.error_type == "duplicate_entity"

    def test_unknown_operation(self, daemon):
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.call("frobnicate")
            assert excinfo.value.error_type == "protocol"

    def test_malformed_args(self, daemon):
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.call("insert")  # no profile
            assert excinfo.value.error_type == "bad_request"
            # the connection survives a failed request
            assert client.ping()["protocol"] == 2

    def test_top_k_unknown_entity(self, daemon):
        with ServeClient(*daemon.address) as client:
            with pytest.raises(ServeError) as excinfo:
                client.top_k("ghost", side=0)
            assert excinfo.value.error_type == "unknown_entity"

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "-Infinity", "true", "0"])
    def test_a_deadline_that_is_not_a_finite_positive_number_is_refused(
        self, daemon, deadline
    ):
        """Raw frames: the decoder parses ``NaN`` / ``Infinity``, which no
        ``<= 0`` check catches, and ``true`` is an int to ``isinstance``."""
        payload = f'{{"args":{{}},"deadline_ms":{deadline},"id":1,"op":"ping"}}'.encode()
        with socket.create_connection(daemon.address) as connection:
            connection.sendall(FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
            response = read_message_from(connection.makefile("rb"))
        assert response["ok"] is False
        assert response["error"]["type"] == "bad_request"
        assert "deadline_ms" in response["error"]["message"]

    @pytest.mark.parametrize("k", [True, 2.9, "5", -3, None])
    def test_top_k_refuses_a_k_that_is_not_a_non_negative_integer(self, daemon, k):
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            client.insert(make_profile("b0", text=TEXTS[0]), side=1)
            with pytest.raises(ServeError) as excinfo:
                client.top_k("a0", side=0, k=k)
            assert excinfo.value.error_type == "bad_request"
            assert "'k'" in str(excinfo.value)
            assert client.top_k("a0", side=0, k=0)["matches"] == []
            assert len(client.top_k("a0", side=0, k=1)["matches"]) == 1


@pytest.mark.parametrize("num_shards", [0, -1])
def test_num_shards_must_be_positive(tmp_path, frozen_model, num_shards):
    """A refused shard count leaves no log and no snapshot behind."""
    with pytest.raises(ValueError, match="num_shards must be at least 1"):
        MatchingDaemon(tmp_path / "wal", frozen_model, num_shards=num_shards)
    assert not (tmp_path / "wal").exists()


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("heartbeat_interval", 0.0, "heartbeat_interval must be above 0"),
        ("heartbeat_interval", -1.0, "heartbeat_interval must be above 0"),
        ("hang_timeout", 0.0, "hang_timeout must be above 0"),
        ("max_pending", 0, "max_pending must be at least 1"),
        ("slow_request_ms", -1.0, "slow_request_ms must be at least 0"),
    ],
)
def test_timing_and_queue_values_that_break_the_daemon_are_refused(
    tmp_path, frozen_model, option, value, message
):
    """Refused before the session writes its log, like a bad shard count."""
    with pytest.raises(ValueError, match=message):
        MatchingDaemon(tmp_path / "wal", frozen_model, **{option: value})
    assert not (tmp_path / "wal").exists()


class TestSnapshotConsistency:
    def test_concurrent_reads_pin_exact_offsets(self, served, tmp_path):
        """Queries racing a writer must each equal the canonical state at
        their own pinned offset — verified post-hoc against sessions
        recovered from truncated copies of the daemon's WAL."""
        daemon, _ = served
        responses = []
        errors = []

        def reader():
            try:
                with ServeClient(*daemon.address) as client:
                    for _ in range(12):
                        answer = client.match()
                        responses.append((answer["offset"], answer["retained"]))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        with ServeClient(*daemon.address) as writer:
            # an early snapshot lets the check below recover the canonical
            # state at any later offset from a truncated copy of the log
            writer.checkpoint()
            thread = threading.Thread(target=reader)
            thread.start()
            for round_index in range(3):
                for i, text in enumerate(TEXTS):
                    serial = round_index * len(TEXTS) + i
                    writer.insert(
                        make_profile(f"a{serial}", text=text), side=0
                    )
                    writer.insert(
                        make_profile(f"b{serial}", text=TEXTS[::-1][i]), side=1
                    )
                if round_index == 1:
                    writer.remove("a3", side=0)
                    writer.update(make_profile("b2", text=TEXTS[5]), side=1)
            thread.join(120)
        assert not errors
        assert not thread.is_alive()
        offsets = [offset for offset, _ in responses]
        assert offsets == sorted(offsets), "pinned offsets must be monotone"

        # stop the daemon so the WAL is final, then check every response
        _stop(*served)
        wal_dir = Path(daemon.wal_path)
        for offset, retained in {o: r for o, r in responses}.items():
            assert retained == _canonical_at(wal_dir, offset, tmp_path), (
                f"response pinned at offset {offset} is not the canonical "
                "state at that offset"
            )

    def test_restart_serves_identical_state(self, tmp_path, frozen_model):
        wal = tmp_path / "wal"
        daemon = MatchingDaemon(wal, frozen_model, num_shards=2, bilateral=True)
        thread = _start(daemon)
        with ServeClient(*daemon.address) as client:
            for i, text in enumerate(TEXTS):
                client.insert(make_profile(f"a{i}", text=text), side=0)
                client.insert(make_profile(f"b{i}", text=TEXTS[::-1][i]), side=1)
            client.remove("a2", side=0)
            client.checkpoint()
            client.insert(make_profile("a9", text=TEXTS[1]), side=0)
            before = client.match()
        _stop(daemon, thread)

        # a different shard count must make no observable difference
        recovered = MatchingDaemon(wal, recover=True, num_shards=3)
        thread = _start(recovered)
        try:
            with ServeClient(*recovered.address) as client:
                after = client.match()
                assert after["retained"] == before["retained"]
                # and the daemon keeps accepting writes after recovery
                client.insert(make_profile("b9", text=TEXTS[2]), side=1)
                final = client.match()
            offline = recover_session(wal)
            try:
                assert final["retained"] == reference_retained(offline)
            finally:
                offline.close()
        finally:
            _stop(recovered, thread)


class TestGracefulShutdown:
    def test_shutdown_op_drains_and_exits(self, tmp_path, frozen_model):
        daemon = MatchingDaemon(
            tmp_path / "wal", frozen_model, num_shards=2, bilateral=True
        )
        thread = _start(daemon)
        with ServeClient(*daemon.address) as client:
            client.insert(make_profile("a0", text=TEXTS[0]), side=0)
            assert client.shutdown() == {"stopping": True}
        thread.join(60)
        assert not thread.is_alive()
        # the final checkpoint landed: state recovers without the tail replay
        snapshots = sorted((tmp_path / "wal").glob("snapshot-*.snap"))
        assert len(snapshots) >= 1  # shutdown checkpoint
        session = recover_session(tmp_path / "wal")
        try:
            assert session.index.has_entity("a0", side=0)
        finally:
            session.close()

    @pytest.mark.slow
    def test_sigterm_mid_ingest_recovers_every_acknowledged_write(self, tmp_path):
        """Kill the real daemon subprocess mid-ingest: it must exit 0, and
        ``--recover`` must resume every write the client saw acknowledged."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--wal", str(tmp_path / "wal"), "--shards", "2",
                "--dataset", "DblpAcm", "--scale", "0.03",
                "--training-size", "20",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            banner = json.loads(process.stdout.readline())
            acked = []
            with ServeClient(banner["host"], banner["port"]) as client:
                for i in range(40):
                    side = i % 2
                    text = TEXTS[i % len(TEXTS)]
                    client.insert(
                        make_profile(f"e{i}", text=text), side=side
                    )
                    acked.append((f"e{i}", side))
                    if i == 25:
                        process.send_signal(signal.SIGTERM)
            # the client loop above may have died mid-flight once the daemon
            # drained — everything acknowledged *before* that is the contract
        except (ProtocolError, ServeError, OSError, BrokenPipeError):
            pass
        returncode = process.wait(120)
        stderr = process.stderr.read()
        assert returncode == 0, f"daemon exited {returncode}: {stderr[-2000:]}"

        session = recover_session(tmp_path / "wal")
        try:
            for entity_id, side in acked:
                assert session.index.has_entity(entity_id, side=side), (
                    f"acknowledged insert {entity_id!r} lost across SIGTERM"
                )
        finally:
            session.close()
