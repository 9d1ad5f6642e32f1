"""Golden request/response replay for the serving protocol.

A fixed scripted client session — inserts, a bulk load, a removal, an
in-place update, matches, a top-k lookup, a checkpoint, a metrics
scrape, an error case — runs against an in-process daemon with the
deterministic fixed-weight model, and every raw request/response
envelope (after stripping the few fields that are
environment-dependent: latencies, absolute paths, the package version,
the Prometheus sample values) is frozen into
``tests/data/golden_serve.json``.

The script supplies a deterministic ``trace`` id with every request, so
the golden also freezes the trace-echo contract of the v2 envelope: the
response must carry back exactly the id the client sent.

The WAL journals canonical JSON, so even the *offsets* in the responses
are content-deterministic: a change to record encoding, response shape,
retention semantics or error taxonomy fails here.

To regenerate after an *intentional* protocol or semantics change::

    PYTHONPATH=src python tests/serve/test_golden_serve.py --regenerate
"""

import copy
import json
import socket
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from reference import make_frozen_model
from repro.serve import MatchingDaemon
from repro.serve.protocol import read_message_from, write_message_to

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_serve.json"

SCRIPT = (
    ("ping", {}),
    ("insert", {"profile": {"entity_id": "a0", "attributes": {"text": "alpha beta gamma"}}, "side": 0}),
    ("insert_bulk", {"profiles": [
        {"entity_id": "a1", "attributes": {"text": "beta gamma delta"}},
        {"entity_id": "a2", "attributes": {"text": "alpha delta eps"}},
    ], "side": 0}),
    ("insert", {"profile": {"entity_id": "b0", "attributes": {"text": "gamma eps zeta"}}, "side": 1}),
    ("insert", {"profile": {"entity_id": "b1", "attributes": {"text": "alpha beta zeta"}}, "side": 1}),
    ("insert", {"profile": {"entity_id": "b2", "attributes": {"text": "beta gamma eps"}}, "side": 1}),
    ("match", {}),
    ("top_k", {"entity_id": "a0", "side": 0, "k": 2}),
    ("remove", {"entity_id": "a1", "side": 0}),
    ("update", {"profile": {"entity_id": "b0", "attributes": {"text": "alpha gamma"}}, "side": 1}),
    ("match", {}),
    ("remove", {"entity_id": "ghost", "side": 0}),
    ("checkpoint", {}),
    ("metrics", {}),
    ("stats", {}),
)


def _normalize(op, envelope):
    """Strip environment-dependent fields from a response envelope."""
    envelope = copy.deepcopy(envelope)
    result = envelope.get("result")
    if not isinstance(result, dict):
        return envelope
    if op == "ping":
        result.pop("version", None)
    if op == "checkpoint" and "snapshot" in result:
        result["snapshot"] = Path(result["snapshot"]).name
    if op == "metrics":
        # sample values are timing/process-dependent; the *family set*
        # of the exposition is part of the protocol surface
        result["text"] = sorted(
            line.split()[2]
            for line in result["text"].splitlines()
            if line.startswith("# TYPE ")
        )
    if op == "stats":
        result.pop("metrics", None)  # latencies are timing-dependent
        daemon = result.get("daemon", {})
        daemon.pop("version", None)
        # the event-log path (when inherited from the environment) is a
        # host-dependent absolute path
        daemon.get("observability", {}).pop("event_log", None)
    return envelope


def _transcript():
    with tempfile.TemporaryDirectory() as tmp:
        daemon = MatchingDaemon(
            Path(tmp) / "wal", make_frozen_model(), num_shards=2, bilateral=True
        )
        thread = threading.Thread(target=daemon.serve, daemon=True)
        thread.start()
        assert daemon.ready.wait(60)
        transcript = []
        try:
            with socket.create_connection(daemon.address, timeout=60) as sock:
                stream = sock.makefile("rwb")
                for index, (op, args) in enumerate(SCRIPT, start=1):
                    request = {
                        "id": index,
                        "op": op,
                        "args": args,
                        # deterministic client-supplied trace ids: the
                        # response must echo them back verbatim
                        "trace": f"{index:016x}",
                    }
                    write_message_to(stream, request)
                    envelope = read_message_from(stream)
                    transcript.append(
                        {"request": request, "response": _normalize(op, envelope)}
                    )
        finally:
            daemon.request_shutdown()
            thread.join(60)
        return transcript


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.skip("golden fixture missing; regenerate with --regenerate")
    return json.loads(GOLDEN_PATH.read_text())


def test_scripted_session_matches_golden(golden):
    assert _transcript() == golden["transcript"]


def _regenerate():
    GOLDEN_PATH.write_text(
        json.dumps({"transcript": _transcript()}, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
