"""The perf ledger's fixed vocabulary: workloads, metrics, child environment.

Everything a later issue may cite by name lives here; ``BENCHMARK.json`` at
the repository root is the driver-facing projection of these tables (its
schema admits only ``name``/``unit``/``better``/``bound``; the "moves / on /
flat on" mapping and the measurement discipline are carried by this module
and the README).  ``test_ledger_units.py`` asserts the two agree.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

#: timed seconds the workload sizes below were tuned for; ``--seconds`` scales
#: the timed round count linearly from here.  Rounds are short (~0.1 s) and
#: many (120 per run): in this sandbox's noisy stretches the quiet gaps are
#: tens of milliseconds long, so a 16 ms kernel still finds its floor while a
#: 250 ms operation never does (measured: +15-40 % for 15 minutes on end)
RUN_SECONDS = 10
#: fresh child processes per invocation (``setup_s`` is the median of their
#: set-ups; round values are pooled over all of them)
CHILDREN = 3
#: untimed warm-up rounds before the first timed round of every child
WARMUP_ROUNDS = 3
#: each end-to-end timing takes, per operation position of the round, the
#: fastest repetition over the pooled timed rounds, then averages over the
#: round's operations (sums over the stages of a recovery)
ESTIMATOR = "min-of-rounds per operation"
#: generator seed of every workload's record content; ``--seed`` drives the
#: arrival order, the churn-chunk choice and the training sample instead
#: (see ``ledger_workloads``)
CONTENT_SEED = 7
#: one synchronous caller; the next operation is sent when the previous one
#: has been acknowledged
LOAD_SHAPE = "closed loop, 1 caller"
#: every journaled mutation is fsynced before it is acknowledged
WAL_SYNC = "always"
#: serve_mixed runs ``python -m repro serve`` with its defaults (tracing on,
#: delta shipping on) and this many shard workers
SERVE_SHARDS = 2
#: a run whose end calibration exceeds its start calibration by more than
#: this factor is marked ``contaminated`` (still reported)
CONTAMINATION_FACTOR = 1.25
#: the conditioning process touches this many MiB once per invocation
#: (>= 1.5x the largest workload's peak RSS) so host first-touch cost is
#: never inside a metric
CONDITION_MB = 640

#: environment of every child process (and, through inheritance, of the
#: serving daemon and its shard workers).  The glibc knobs keep freed memory
#: inside the process, so steady-state rounds take ~0 page faults.
CHILD_ENV: Dict[str, str] = {
    "PYTHONHASHSEED": "0",
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_MMAP_THRESHOLD_": str(1 << 25),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 34),
    "MALLOC_TOP_PAD_": str(1 << 28),
}


class WorkloadSpec(NamedTuple):
    """One workload: the fixed name, why it exists, and its sizes."""

    name: str
    why: str
    #: generator dataset and scale (full / ``--quick``)
    dataset: str
    scale: float
    quick_scale: float
    #: records churned per round, where the workload churns (full / quick)
    churn: int
    quick_churn: int
    #: timed rounds per child at ``--seconds RUN_SECONDS``
    rounds: int = 40
    #: recovery repetitions per child
    recover_reps: int = 10


WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "batch_dirty_blast",
        "Dirty ER at the paper's scalability setting: BLAST features (no LCP) "
        "and BLAST pruning; the co-occurrence pass dominates, so it is the "
        "control for any LCP or cardinality-pruning change",
        dataset="D50K", scale=0.03, quick_scale=0.01, churn=0, quick_churn=0,
    ),
    WorkloadSpec(
        "batch_clean_rcnp",
        "Clean-Clean ER with the RCNP feature set (adds LCP, WJS, JS) and "
        "per-node top-k pruning: same blocking/weights/core layers used "
        "differently, LCP dominates",
        dataset="DblpAcm", scale=0.22, quick_scale=0.05, churn=0, quick_churn=0,
    ),
    WorkloadSpec(
        "stream_churn",
        "write-heavy in-process MatchingSession with an fsynced WAL (3 "
        "journaled mutations per churned record, one exact answer per round) "
        "and no sockets or workers: isolates index/delta/WAL cost from serving",
        dataset="DblpAcm", scale=0.12, quick_scale=0.05, churn=24, quick_churn=10,
    ),
    WorkloadSpec(
        "serve_mixed",
        "read-heavy use of the same index through the serving daemon (5 "
        "writes per read, 2 shard workers): the only workload where protocol, "
        "queues, pinned-offset fan-out and delta-shipped views do work",
        dataset="DblpAcm", scale=0.10, quick_scale=0.05, churn=10, quick_churn=10,
        recover_reps=3,
    ),
)

WORKLOAD_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}
BATCH = ("batch_dirty_blast", "batch_clean_rcnp")
ONLINE = ("stream_churn", "serve_mixed")


class Metric(NamedTuple):
    """One named metric.  ``bound`` is set on end-to-end metrics only."""

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    #: which end-to-end metric(s) the layer is expected to move
    moves: Tuple[str, ...] = ()
    #: workloads on which it should move them
    on: Tuple[str, ...] = ()
    #: workloads on which it should read flat (zero: the layer is bypassed)
    flat_on: Tuple[str, ...] = ()
    note: str = ""


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        note="child start -> first timed round: imports, dataset generation, "
        "model training, bulk load / daemon start, warm-up rounds; median over "
        "the invocation's children",
    ),
    Metric(
        "ingest_ms", "ms", "lower", 0.25,
        note="records -> indexed candidate pairs.  batch: one prepare_blocks "
        "call; stream/serve: mean acked-mutation latency of the round",
    ),
    Metric(
        "answer_ms", "ms", "lower", 0.25,
        note="indexed state -> retained set.  batch: statistics + "
        "GeneralizedSupervisedMetaBlocking.run; stream: session.retained(); "
        "serve: mean client-observed match/top_k latency of the round",
    ),
    Metric(
        "recover_ms", "ms", "lower", 0.25,
        note="durable state -> first correct answer.  stream: "
        "MatchingSession.recover + retained(); serve: `repro serve --recover` "
        "spawn -> first match; batch: dataset directory on disk -> retained "
        "set (load + prepare + run)",
    ),
    Metric(
        "peak_rss_mb", "mb", "lower", 0.10,
        note="max RSS of the program through set-up and timed rounds (serve: "
        "daemon + shard workers, summed); median over children",
    ),
)

_ALL = tuple(w.name for w in WORKLOADS)


def _layer(name, unit, moves, on, flat_on=(), better="lower", note=""):
    return Metric(name, unit, better, None, tuple(moves), tuple(on), tuple(flat_on), note)


PER_LAYER: Tuple[Metric, ...] = (
    # -- blocking (repro.blocking.prepare_blocks stages) ------------------------
    _layer("blocking.tokenize_ms", "ms", ["ingest_ms"], BATCH, ONLINE),
    _layer("blocking.purge_ms", "ms", ["ingest_ms"], BATCH, ONLINE),
    _layer("blocking.filter_ms", "ms", ["ingest_ms"], BATCH, ONLINE),
    _layer("blocking.candidates_ms", "ms", ["ingest_ms"], BATCH, ONLINE),
    _layer("blocking.blocks", "count", ["ingest_ms"], BATCH, ONLINE),
    _layer("blocking.candidate_pairs", "count", ["ingest_ms"], BATCH, ONLINE),
    # -- weights / features / training / scoring / pruning (batch answer) -------
    _layer("weights.statistics_ms", "ms", ["answer_ms"], BATCH, ONLINE,
           note="BlockStatistics construction over the prepared CSR"),
    _layer("weights.cooccurrence_ms", "ms", ["answer_ms"], BATCH, ONLINE),
    _layer("weights.lcp_ms", "ms", ["answer_ms"], ["batch_clean_rcnp"],
           ["batch_dirty_blast", *ONLINE], note="no LCP feature on BLAST"),
    _layer("features.schemes_ms", "ms", ["answer_ms"], BATCH, ONLINE),
    _layer("training.sample_fit_ms", "ms", ["answer_ms"], BATCH, ONLINE),
    _layer("ml.score_ms", "ms", ["answer_ms"], BATCH, ONLINE),
    _layer("pruning.prune_ms", "ms", ["answer_ms"], BATCH, ONLINE),
    _layer("core.run_other_ms", "ms", ["answer_ms"], BATCH, ONLINE,
           note="self time of pipeline.run: labels, scaling, result assembly"),
    _layer("pruning.retained_pairs", "count", ["answer_ms"], _ALL,
           note="must repeat exactly"),
    _layer("pruning.retained_ratio", "ratio", ["answer_ms"], _ALL),
    _layer("eval.recall", "ratio", ["answer_ms"], _ALL, better="higher"),
    _layer("eval.precision", "ratio", ["answer_ms"], _ALL, better="higher"),
    # -- incremental index / delta features / session (online ingest) -----------
    _layer("index.add_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH,
           note="per mutation; inside the daemon on serve_mixed, where it "
           "shows as daemon.insert_server_ms"),
    _layer("index.remove_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH),
    _layer("delta.features_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH),
    _layer("session.score_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH),
    _layer("session.online_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH),
    _layer("session.other_ms", "ms", ["ingest_ms"], ["stream_churn"], BATCH,
           note="self time of insert/update/remove: key packing, id lookups"),
    _layer("index.new_pairs_per_insert", "count", ["ingest_ms"], ONLINE, BATCH),
    _layer("index.retracted_pairs_per_remove", "count", ["ingest_ms"], ONLINE, BATCH),
    _layer("index.slots", "count", ["ingest_ms", "peak_rss_mb"], ONLINE, BATCH),
    _layer("index.live_pairs", "count", ["ingest_ms", "answer_ms"], ONLINE, BATCH),
    # -- persistence -------------------------------------------------------------
    _layer("wal.append_ms", "ms", ["ingest_ms"], ONLINE, BATCH),
    _layer("wal.bytes_per_op", "bytes", ["ingest_ms"], ONLINE, BATCH),
    _layer("snapshot.write_ms", "ms", ["setup_s"], ONLINE, BATCH),
    _layer("snapshot.bytes", "bytes", ["setup_s", "recover_ms"], ONLINE, BATCH),
    _layer("recover.replay_ms", "ms", ["recover_ms"], ["stream_churn"],
           [*BATCH, "serve_mixed"], note="recover_session: snapshot load + tail replay"),
    _layer("recover.records_replayed", "count", ["recover_ms"], ONLINE, BATCH),
    _layer("recover.load_ms", "ms", ["recover_ms"], BATCH, ONLINE,
           note="dataset directory -> collections (repro.datasets.loaders)"),
    _layer("serve.start_ms", "ms", ["recover_ms", "setup_s"], ["serve_mixed"],
           [*BATCH, "stream_churn"], note="`repro serve --recover` spawn -> serving banner"),
    _layer("serve.first_answer_ms", "ms", ["recover_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"], note="first match after recovery (full ship)"),
    # -- online answer -----------------------------------------------------------
    _layer("delta.generate_all_ms", "ms", ["answer_ms"], ["stream_churn"], BATCH),
    _layer("session.retained_score_ms", "ms", ["answer_ms"], ["stream_churn"], BATCH),
    _layer("session.retained_prune_ms", "ms", ["answer_ms"], ["stream_churn"], BATCH),
    _layer("session.retained_assemble_ms", "ms", ["answer_ms"], ["stream_churn"], BATCH),
    _layer("index.bulk_load_ms", "ms", ["setup_s"], ["stream_churn"], BATCH,
           note="add_entities_bulk of the base collection (both sides)"),
    # -- serving -----------------------------------------------------------------
    _layer("client.ping_ms", "ms", ["ingest_ms", "answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("protocol.codec_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"], note="encode + decode of a captured match reply"),
    _layer("protocol.answer_bytes", "bytes", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("daemon.mutation_queue_wait_ms", "ms", ["ingest_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("daemon.read_queue_wait_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("daemon.insert_server_ms", "ms", ["ingest_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("daemon.remove_server_ms", "ms", ["ingest_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("daemon.match_server_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("serve.wire_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"],
           note="client-observed match latency minus daemon.match_server_ms"),
    _layer("router.view_apply_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("router.read_bytes_per_answer", "bytes", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("router.delta_hit_ratio", "ratio", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"], better="higher"),
    _layer("router.full_reads", "count", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("workers.replica_lag_records", "count", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("workers.shm_resident_mb", "mb", ["peak_rss_mb"], ["serve_mixed"],
           [*BATCH, "stream_churn"]),
    _layer("serve.overhead_ms", "ms", ["answer_ms"], ["serve_mixed"],
           [*BATCH, "stream_churn"],
           note="serve match latency minus in-process retained() on the same state"),
    # -- harness diagnostics (never gated; they flag a contaminated run) ----------
    _layer("harness.calib_py_ms", "ms", [], _ALL),
    _layer("harness.calib_np_ms", "ms", [], _ALL),
    _layer("harness.calib_drift_pct", "%", [], _ALL,
           note="worst end/start calibration ratio of the run, minus one"),
    _layer("harness.condition_s", "s", [], _ALL),
    _layer("harness.sys_s", "s", [], _ALL, note="kernel time during timed rounds"),
    _layer("harness.minor_faults", "count", [], _ALL, note="during timed rounds"),
    _layer("harness.rounds", "count", [], _ALL, better="higher"),
    _layer("harness.trace_overhead_pct", "%", [], _ALL),
    _layer("harness.unattributed_ms", "ms", [], _ALL,
           note="timed-op time no layer span covers"),
    _layer("ingest_ms.median", "ms", [], _ALL),
    _layer("ingest_ms.p99", "ms", [], _ALL),
    _layer("answer_ms.median", "ms", [], _ALL),
    _layer("answer_ms.max", "ms", [], _ALL),
)

END_TO_END_NAMES: Tuple[str, ...] = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)
UNITS: Dict[str, str] = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
BOUNDS: Dict[str, float] = {m.name: m.bound for m in END_TO_END}

#: (phase, span name) -> per-layer metric fed by that span's self time.
#: Self times are divided by the phase's operation count of the round, so the
#: ingest-phase layers of a round sum to its ``ingest_ms`` and the
#: answer-phase layers to its ``answer_ms``.
SPAN_METRICS: Dict[Tuple[str, str], str] = {
    ("ingest", "blocking.tokenize"): "blocking.tokenize_ms",
    ("ingest", "blocking.purge"): "blocking.purge_ms",
    ("ingest", "blocking.filter"): "blocking.filter_ms",
    ("ingest", "blocking.candidates"): "blocking.candidates_ms",
    ("answer", "weights.statistics"): "weights.statistics_ms",
    ("answer", "weights.cooccurrence"): "weights.cooccurrence_ms",
    ("answer", "weights.lcp"): "weights.lcp_ms",
    ("answer", "features.schemes"): "features.schemes_ms",
    ("answer", "training.sample_fit"): "training.sample_fit_ms",
    ("answer", "ml.score"): "ml.score_ms",
    ("answer", "pruning.prune"): "pruning.prune_ms",
    ("answer", "core.run"): "core.run_other_ms",
    ("ingest", "index.add"): "index.add_ms",
    ("ingest", "index.remove"): "index.remove_ms",
    ("ingest", "delta.features"): "delta.features_ms",
    ("ingest", "model.score"): "session.score_ms",
    ("ingest", "session.online"): "session.online_ms",
    ("ingest", "session.mutate"): "session.other_ms",
    ("ingest", "wal.append"): "wal.append_ms",
    ("answer", "delta.generate_all"): "delta.generate_all_ms",
    ("answer", "model.score"): "session.retained_score_ms",
    ("answer", "pruning.prune.online"): "session.retained_prune_ms",
    ("answer", "session.retained"): "session.retained_assemble_ms",
    ("ingest", "op"): "harness.unattributed_ms",
    ("answer", "op"): "harness.unattributed_ms",
}


def benchmark_json() -> Dict[str, object]:
    """The driver-facing ``BENCHMARK.json`` content derived from the tables."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def layer_table() -> List[Dict[str, object]]:
    """The "moves / on / flat on" mapping as plain data (README, results files)."""
    return [
        {
            "name": m.name,
            "unit": m.unit,
            "moves": list(m.moves),
            "on": list(m.on),
            "flat_on": list(m.flat_on),
            "note": m.note,
        }
        for m in PER_LAYER
    ]
