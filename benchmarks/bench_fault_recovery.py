"""Bench S5 — fault recovery: worker MTTR, availability, tails under kills.

Runs a real :class:`repro.serve.MatchingDaemon` (fast supervision
timings, an event log) over a frozen DblpAcm model, then SIGKILLs shard
workers in a round-robin kill-loop while a writer keeps ingesting and a
reader keeps issuing full ``match`` queries.  Three numbers come out:

* **worker MTTR** — per kill, the time from SIGKILL to the replacement
  worker's ``checkpoint_adoption`` event (its process joined to the victim
  through the supervisor's ``worker_respawn``): detection, respawn and
  checkpoint adoption end to end;
* **availability** — the fraction of reads during the loop that were
  answered at all (no read uses the fleet, so a kill should cost none);
* **read tails** — p50/p99 ``match`` latency across the whole loop,
  kills included.

Saved to ``benchmarks/results/fault_recovery.json``.  Qualitative perf
assertions are downgraded to measurements with ``REPRO_SKIP_PERF=1``.
"""

import json
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_benchmark
from repro.incremental import train_frozen_model
from repro.obs import events as obs_events
from repro.obs import read_events
from repro.serve import MatchingDaemon, ServeClient, ServeError

RESULTS_DIR = Path(__file__).resolve().parent / "results"
DATASET = "DblpAcm"
PRUNING = "BLAST"
NUM_SHARDS = 2


def _profiles(collection):
    return [
        {"entity_id": p.entity_id, "attributes": dict(p.attributes)}
        for p in collection
    ]


def _start(daemon):
    thread = threading.Thread(target=daemon.serve, daemon=True)
    thread.start()
    assert daemon.ready.wait(120), "daemon did not come up"
    return thread


def _stop(daemon, thread):
    daemon.request_shutdown()
    thread.join(120)
    assert not thread.is_alive(), "daemon did not shut down"
    obs_events.configure(None)


def _adopted_at(directory, victim_pid):
    """When the worker that replaced ``victim_pid`` adopted its checkpoint
    (event-log wall clock), or ``None`` while it has not."""
    log = read_events(directory)
    replacements = {
        event["new_pid"]
        for event in log
        if event["type"] == "worker_respawn" and event["old_pid"] == victim_pid
    }
    adoptions = [
        event["ts"]
        for event in log
        if event["type"] == "checkpoint_adoption" and event["pid"] in replacements
    ]
    return min(adoptions, default=None)


def test_fault_recovery(full_mode, tmp_path, report_sink):
    scale = 0.2 if full_mode else 0.1
    kills = 6 if full_mode else 4
    dataset = load_benchmark(DATASET, seed=0, scale=scale)
    model = train_frozen_model(
        dataset, bootstrap_fraction=0.5, pruning=PRUNING, seed=0
    )
    preload = _profiles(dataset.first)[:120]
    stream = _profiles(dataset.second)

    daemon = MatchingDaemon(
        tmp_path / "wal",
        model,
        num_shards=NUM_SHARDS,
        bilateral=True,
        heartbeat_interval=0.1,
        hang_timeout=1.0,
        event_log=tmp_path / "events",
    )
    thread = _start(daemon)

    with ServeClient(*daemon.address, timeout=300.0) as client:
        for profile in preload:
            client.insert(profile, side=0)
        # a checkpoint here makes every respawn an adoption + short tail
        client.checkpoint()

    # -- the kill loop: writer ingests, reader measures, workers die -------------
    stop_writer = threading.Event()
    acked = []

    def writer():
        with ServeClient(*daemon.address, timeout=300.0) as sink:
            for profile in stream:
                if stop_writer.is_set():
                    break
                sink.insert(profile, side=1)
                acked.append(profile["entity_id"])

    writer_thread = threading.Thread(target=writer)
    writer_thread.start()

    latencies = []
    answered = 0
    failed = 0
    mttr = []
    with ServeClient(*daemon.address, timeout=300.0) as reader:
        for round_index in range(kills):
            shard = round_index % NUM_SHARDS
            victim_pid = daemon.router.handle(shard).pid
            killed_at = time.time()  # the event log's clock
            os.kill(victim_pid, signal.SIGKILL)
            adopted_at = None
            while adopted_at is None and time.time() - killed_at < 60:
                started = time.perf_counter()
                try:
                    reader.match()
                except ServeError:
                    failed += 1
                    continue
                latencies.append(time.perf_counter() - started)
                answered += 1
                adopted_at = _adopted_at(tmp_path / "events", victim_pid)
            assert adopted_at is not None, (
                f"shard {shard}'s replacement never adopted a checkpoint after "
                f"kill {round_index}"
            )
            mttr.append(adopted_at - killed_at)
    stop_writer.set()
    writer_thread.join(300)
    assert not writer_thread.is_alive()

    with ServeClient(*daemon.address, timeout=300.0) as client:
        stats = client.stats()
        final = client.match()
    _stop(daemon, thread)

    # no acked write may be lost to the kill loop (workers are replicas;
    # the authority + WAL never died)
    from repro.persistence.recovery import recover_session

    session = recover_session(tmp_path / "wal")
    try:
        for entity_id in acked:
            assert session.index.has_entity(entity_id, side=1), (
                f"acked insert {entity_id!r} lost across the kill loop"
            )
    finally:
        session.close()

    availability = answered / max(answered + failed, 1)
    quantiles = np.quantile(latencies, (0.5, 0.99)) if latencies else (0.0, 0.0)
    payload = {
        "dataset": DATASET,
        "scale": scale,
        "shards": NUM_SHARDS,
        "kills": kills,
        "worker_restarts": int(
            stats["daemon"]["supervision"]["worker_restarts"]
        ),
        "mttr_seconds_mean": float(np.mean(mttr)),
        "mttr_seconds_max": float(np.max(mttr)),
        "reads_answered": answered,
        "reads_failed": failed,
        "availability": float(availability),
        "match_p50_ms": float(quantiles[0] * 1e3),
        "match_p99_ms": float(quantiles[1] * 1e3),
        "acked_during_loop": len(acked),
        "retained_pairs": len(final["retained"]),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "fault_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    report_sink(
        "fault_recovery",
        "\n".join(
            [
                f"fault recovery — {DATASET} (scale {scale}, "
                f"{NUM_SHARDS} shards, {kills} kills)",
                f"  worker MTTR: mean {payload['mttr_seconds_mean']:.2f}s, "
                f"max {payload['mttr_seconds_max']:.2f}s "
                f"(kill -> respawn -> checkpoint adoption)",
                f"  availability under kill-loop: {availability:.1%} "
                f"({answered} answered / {failed} failed; no read uses the fleet)",
                f"  match under kill-loop: p50 {payload['match_p50_ms']:.1f}ms, "
                f"p99 {payload['match_p99_ms']:.1f}ms",
                f"  {len(acked)} writes acked during the loop, none lost "
                f"({payload['worker_restarts']} worker restarts)",
            ]
        ),
    )

    # Structural expectations that hold on any machine.
    assert payload["worker_restarts"] >= kills
    assert len(mttr) == kills
    assert answered > 0
    assert len(acked) > 0
    # Qualitative timing claims (wall-clock-sensitive; REPRO_SKIP_PERF=1
    # downgrades them on noisy shared runners):
    # (1) a killed worker's replacement has adopted a checkpoint within seconds,
    # (2) the service stayed available through every kill.
    if not os.environ.get("REPRO_SKIP_PERF"):
        assert payload["mttr_seconds_mean"] < 10.0
        assert availability >= 0.99
