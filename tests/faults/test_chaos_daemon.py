"""Chaos: a seeded kill-loop against the live daemon, no acked write lost.

The ``REPRO_FAULTS`` plan SIGKILLs every shard worker mid-replay (each at
a seed-drawn applied-record ordinal) while a client keeps ingesting and
reading.  The daemon must keep answering throughout (no read uses the
fleet), every worker must be replaced, and after healing and shutdown the
offline recovery must hold every acked write with the exact retained set
the last read reported.

Seed selection: ``REPRO_CHAOS_SEED`` (default 0).  CI runs the fixed
seed plus one randomized seed, logging it — the plan line printed below
is all that is needed to replay a failure.
"""

import os
import threading
import time

import pytest

from reference import reference_retained
from repro import faults
from repro.datamodel import make_profile
from repro.faults import FAULTS_ENV
from repro.persistence.recovery import recover_session
from repro.serve import MatchingDaemon, ServeClient

SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))

TEXTS = (
    "alpha beta gamma",
    "beta gamma delta",
    "alpha delta eps",
    "gamma eps zeta",
    "beta eps zeta",
    "alpha beta zeta",
)


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(60), "daemon did not come up"
    return thread


@pytest.mark.chaos
class TestSeededKillLoop:
    def test_kill_loop_loses_no_acked_write(
        self, tmp_path, frozen_model, monkeypatch, kill_loop
    ):
        plan = kill_loop(SEED, num_shards=2, low=2, high=6)
        print(f"chaos plan (REPRO_CHAOS_SEED={SEED}): {plan!r}")
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        faults.clear()  # workers inherit the armed env at spawn
        daemon = MatchingDaemon(
            tmp_path / "wal",
            frozen_model,
            num_shards=2,
            bilateral=True,
            heartbeat_interval=0.2,
            hang_timeout=1.0,
        )
        thread = _start(daemon)
        acked = []
        final = None
        try:
            initial_pids = {
                shard: daemon.router.handle(shard).pid for shard in range(2)
            }

            def every_worker_replaced():
                return all(
                    daemon.router.handle(shard).pid != initial_pids[shard]
                    for shard in range(2)
                )

            with ServeClient(*daemon.address) as client:
                # ingest + read until the kill loop has claimed BOTH shard
                # workers; the follows of the writes drive replica replay,
                # so they are what walks each worker onto its kill ordinal
                deadline = time.monotonic() + 60
                serial = 0
                while not every_worker_replaced():
                    assert time.monotonic() < deadline, (
                        f"kill loop never fired both kills: {plan!r}"
                    )
                    side = serial % 2
                    entity_id = f"{'ab'[side]}{serial}"
                    client.insert(
                        make_profile(
                            entity_id, text=TEXTS[serial % len(TEXTS)]
                        ),
                        side=side,
                    )
                    acked.append((entity_id, side))
                    client.match()  # answers mid-kill: no read uses the fleet
                    serial += 1
                assert daemon._supervisor.restarts >= 2

                # heal: stop arming respawned workers
                monkeypatch.delenv(FAULTS_ENV)
                faults.clear()
                final = client.match()
        finally:
            faults.clear()
            daemon.request_shutdown()
            thread.join(60)
            assert not thread.is_alive(), "daemon did not shut down"

        recovered = recover_session(tmp_path / "wal")
        try:
            for entity_id, side in acked:
                assert recovered.index.has_entity(entity_id, side=side), (
                    f"acked insert {entity_id!r} lost across the kill loop "
                    f"({plan!r})"
                )
            assert reference_retained(recovered) == final["retained"], (
                "the answer after the kill loop is not the canonical state"
            )
        finally:
            recovered.close()
