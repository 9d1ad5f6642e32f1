"""The four ledger workloads, each as identical-work rounds.

Every workload exposes the same small surface to ``ledger_child``:

``setup()``          generate inputs from the seed, build the live state
``run_round()``      one round of exactly the same work from exactly the
                     same live state; returns per-operation latencies and a
                     digest of the answers it observed
``prepare_recovery()`` leave a durable state with a fixed-length tail
``recover_once()``   durable state -> first correct answer, timed per stage
``verify()``         the reference check (outside every timed region)
``begin_timed()`` / ``end_timed()``  bracket the timed rounds

When the tracer is enabled during ``setup()`` (the traced pass), the workload
also wraps its layers' public entry points with spans there.

The seed reaches only this harness (``repro.utils.rng``); the program under
test receives generated inputs, never the seed.  It drives the arrival order
of the records (node ids, block order, bootstrap prefix), the churn-chunk
choice and the training-sample seed.  The record *content* comes from the
fixed ``CONTENT_SEED``: across generator seeds the same profile's cost moves
5-10 % (candidate pairs 2-4 %, ``retained()`` up to 10 %), which would put
seed-to-seed variance of the data, not of the program, inside every spread.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ledger_spec import CONTENT_SEED, SERVE_SHARDS, WAL_SYNC, WorkloadSpec
from ledger_spans import SpanRecorder

PRUNING_ONLINE = "BLAST"
#: tail rounds journaled after the recovery checkpoint: every recovery
#: repetition replays exactly this many rounds of records
TAIL_ROUNDS = 1
#: serve_mixed: (inserts + 1 match) groups per round
SERVE_GROUPS = 2


class RoundSample(NamedTuple):
    """What one round measured."""

    ingest_seconds: List[float]
    answer_seconds: List[float]
    digest: str


def digest_of(*parts: Any) -> str:
    """Stable hex digest of byte strings / JSON-encodable values."""
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        if not isinstance(part, (bytes, bytearray, memoryview)):
            part = json.dumps(part, sort_keys=True, separators=(",", ":")).encode()
        hasher.update(part)
    return hasher.hexdigest()


def flip_one_pair(pairs: List[Any]) -> List[Any]:
    """The harness self-test's deliberately broken answer: drop one pair."""
    return pairs[1:]


def seeded_dataset(spec: WorkloadSpec, scale: float, order_seed: int):
    """The workload's dataset: fixed content in a seeded arrival order."""
    import dataclasses

    from repro.datamodel import EntityCollection, GroundTruth
    from repro.datasets import load_benchmark, load_dirty_dataset
    from repro.datasets.registry import DIRTY_ORDER
    from repro.incremental import ground_truth_id_pairs
    from repro.utils.rng import make_rng

    rng = make_rng(order_seed)

    def shuffled(collection):
        profiles = list(collection)
        return EntityCollection(
            [profiles[position] for position in rng.permutation(len(profiles))],
            name=collection.name,
            is_clean=collection.is_clean,
        )

    if spec.dataset in DIRTY_ORDER:
        generated = load_dirty_dataset(spec.dataset, seed=CONTENT_SEED, scale=scale)
        pairs = sorted(
            ground_truth_id_pairs(generated.ground_truth, generated.collection)
        )
        collection = shuffled(generated.collection)
        return dataclasses.replace(
            generated,
            collection=collection,
            ground_truth=GroundTruth.from_id_pairs(pairs, collection),
        )
    generated = load_benchmark(spec.dataset, seed=CONTENT_SEED, scale=scale)
    pairs = sorted(
        ground_truth_id_pairs(generated.ground_truth, generated.first, generated.second)
    )
    first, second = shuffled(generated.first), shuffled(generated.second)
    return dataclasses.replace(
        generated,
        first=first,
        second=second,
        ground_truth=GroundTruth.from_id_pairs(pairs, first, second),
    )


class Workload:
    """Shared plumbing; see the module docstring for the contract."""

    #: timed operations of one round (for attempted/failed accounting)
    ops_per_round = 0

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        workdir: Path,
        tracer: SpanRecorder,
        quick: bool = False,
    ) -> None:
        from repro.utils.rng import spawn_seeds

        self.spec = spec
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.tracer = tracer
        self.scale = spec.quick_scale if quick else spec.scale
        self.churn = spec.quick_churn if quick else spec.churn
        # the only place the seed's identity is consumed
        self.order_seed, self.churn_seed, self.train_seed = spawn_seeds(seed, 3)
        #: counts and directly measured layer values (set-up, recovery)
        self.layer: Dict[str, float] = {}
        #: set by the harness self-test: break the answer of this round
        self.break_round: Optional[int] = None
        self.rounds_run = 0

    def _broken(self) -> bool:
        return self.break_round is not None and self.rounds_run == self.break_round

    #: whether harness spans see the layers (they run in this process)
    in_process = True

    def begin_timed(self) -> None:
        """Called after the warm-up rounds, before the first timed round."""

    def end_timed(self) -> None:
        """Called after the last timed round, before the recovery phase."""

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def usage(self) -> Tuple[float, int]:
        """(kernel seconds, minor faults) of the program's processes so far."""
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF)
        return own.ru_stime, own.ru_minflt

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def _write_entity_csv(path: Path, collection) -> None:
    names: List[str] = []
    for profile in collection:
        for name in profile.attributes:
            if name not in names:
                names.append(name)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=["id", *names], restval="")
        writer.writeheader()
        for profile in collection:
            writer.writerow({"id": profile.entity_id, **profile.attributes})


def write_dataset_directory(directory: Path, first, second, ground_truth) -> None:
    """Persist generated collections in ``repro.datasets.loaders``' layout."""
    from repro.incremental import ground_truth_id_pairs

    directory.mkdir(parents=True)
    _write_entity_csv(directory / "first.csv", first)
    if second is not None:
        _write_entity_csv(directory / "second.csv", second)
    with (directory / "ground_truth.csv").open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["first_id", "second_id"])
        writer.writerows(sorted(ground_truth_id_pairs(ground_truth, first, second)))


class BatchWorkload(Workload):
    """``prepare_blocks`` -> features -> LogisticRegression -> pruning."""

    ops_per_round = 2

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.dirty = self.spec.name == "batch_dirty_blast"
        self.directory = self.workdir / "dataset"
        self.last = None

    def _load(self):
        from repro.datasets.loaders import (
            load_clean_clean_directory,
            load_dirty_directory,
        )

        if self.dirty:
            dataset = load_dirty_directory(self.directory, name=self.spec.dataset)
            return dataset.collection, None, dataset.ground_truth
        dataset = load_clean_clean_directory(self.directory, name=self.spec.dataset)
        return dataset.first, dataset.second, dataset.ground_truth

    def setup(self) -> None:
        from repro.core.pipeline import GeneralizedSupervisedMetaBlocking
        from repro.weights import BLAST_FEATURE_SET, RCNP_FEATURE_SET

        generated = seeded_dataset(self.spec, self.scale, self.order_seed)
        if self.dirty:
            first, second = generated.collection, None
        else:
            first, second = generated.first, generated.second
        # the program's input is the dataset directory, not the generator
        write_dataset_directory(self.directory, first, second, generated.ground_truth)
        self.first, self.second, self.truth = self._load()
        self.pipeline = GeneralizedSupervisedMetaBlocking(
            feature_set=BLAST_FEATURE_SET if self.dirty else RCNP_FEATURE_SET,
            pruning="BLAST" if self.dirty else "RCNP",
            seed=self.train_seed,
        )
        if self.tracer.enabled:
            self._wrap_pipeline()

    def _wrap_pipeline(self) -> None:
        import repro.core.pipeline as pipeline_module

        tracer, pipeline = self.tracer, self.pipeline
        tracer.wrap(pipeline, "run", "core.run")
        tracer.wrap(pipeline.feature_generator, "generate", "features.schemes")
        tracer.wrap(pipeline.pruning, "prune", "pruning.prune")
        tracer.wrap(pipeline_module, "build_training_set", "training.sample_fit")
        factory = pipeline.classifier_factory

        def traced_factory():
            classifier = factory()
            tracer.wrap(classifier, "fit", "training.sample_fit", transient=True)
            tracer.wrap(classifier, "predict_proba", "ml.score", transient=True)
            return classifier

        pipeline.classifier_factory = traced_factory

    def _answer(self, prepared):
        tracer = self.tracer
        with tracer.span("weights.statistics"):
            stats = prepared.statistics()
        if tracer.enabled:
            tracer.wrap(stats, "pair_cooccurrence", "weights.cooccurrence", transient=True)
            tracer.wrap(
                stats, "local_candidate_counts_sparse", "weights.lcp", transient=True
            )
        return self.pipeline.run(
            prepared.blocks, prepared.candidates, self.truth, stats=stats
        )

    def _digest(self, result) -> str:
        left, right = result.retained.left, result.retained.right
        if self._broken():
            left, right = left[1:], right[1:]
        return digest_of(left.tobytes(), right.tobytes())

    def run_round(self) -> RoundSample:
        from repro.blocking import prepare_blocks

        tracer = self.tracer
        self.last = None  # one pipeline's worth of arrays alive at a time
        with tracer.span("ingest"):
            started = time.perf_counter()
            prepared = prepare_blocks(self.first, self.second)
            ingest = time.perf_counter() - started
            stages = prepared.timer.as_dict()
            tracer.add_stages(
                [
                    ("blocking.tokenize", stages.get("blocking", 0.0)),
                    ("blocking.purge", stages.get("purging", 0.0)),
                    ("blocking.filter", stages.get("filtering", 0.0)),
                    ("blocking.candidates", stages.get("candidate-extraction", 0.0)),
                ]
            )
        with tracer.span("answer"):
            started = time.perf_counter()
            result = self._answer(prepared)
            answer = time.perf_counter() - started
        self.last = (prepared, result)
        sample = RoundSample([ingest], [answer], self._digest(result))
        self.rounds_run += 1
        return sample

    def prepare_recovery(self) -> None:
        self.expected = digest_of(
            self.last[1].retained.left.tobytes(), self.last[1].retained.right.tobytes()
        )

    def recover_once(self) -> Tuple[List[float], bool]:
        from repro.blocking import prepare_blocks

        clock = time.perf_counter
        started = clock()
        first, second, truth = self._load()
        loaded = clock()
        prepared = prepare_blocks(first, second)
        indexed = clock()
        result = self.pipeline.run(
            prepared.blocks, prepared.candidates, truth, stats=prepared.statistics()
        )
        answered = clock()
        self.layer["recover.load_ms"] = (loaded - started) * 1e3
        observed = digest_of(result.retained.left.tobytes(), result.retained.right.tobytes())
        return (
            [loaded - started, indexed - loaded, answered - indexed],
            observed == self.expected,
        )

    def verify(self) -> Tuple[bool, str]:
        from repro.evaluation import evaluate_result

        prepared, result = self.last
        report = evaluate_result(result, self.truth)
        self.layer.update(
            {
                "blocking.blocks": float(len(prepared.blocks)),
                "blocking.candidate_pairs": float(len(prepared.candidates)),
                "pruning.retained_pairs": float(result.retained_count),
                "pruning.retained_ratio": result.retained_count
                / max(1, len(prepared.candidates)),
                "eval.recall": float(report.recall),
                "eval.precision": float(report.precision),
            }
        )
        consistent = (
            result.retained_count == len(result.retained)
            and report.retained_pairs == result.retained_count
            and 0 < report.true_positives <= min(len(self.truth), result.retained_count)
        )
        return consistent, (
            f"retained {result.retained_count} of {len(prepared.candidates)} pairs, "
            f"recall {report.recall:.4f} precision {report.precision:.4f}"
        )


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


def _choose(rng, population: Sequence[Any], count: int) -> List[int]:
    picked = rng.choice(len(population), size=count, replace=False)
    return sorted(int(position) for position in picked)


def split_churn(first: Sequence[Any], second: Sequence[Any], churn: int, seed: int):
    """Seeded split into (base, churn chunk, records to update), per side.

    Returns ``(base, churned, updated)``, each a list of ``(record, side)``;
    ``churned`` are inserted and removed again every round, ``updated`` are
    base records re-written in place every round.
    """
    from repro.utils.rng import make_rng

    rng = make_rng(seed)
    per_side = churn // 2
    base: List[Tuple[Any, int]] = []
    churned: List[Tuple[Any, int]] = []
    updated: List[Tuple[Any, int]] = []
    for side, records in enumerate((first, second)):
        records = list(records)
        out = set(_choose(rng, records, per_side))
        kept = [record for position, record in enumerate(records) if position not in out]
        churned.extend((records[position], side) for position in sorted(out))
        base.extend((record, side) for record in kept)
        updated.extend((kept[position], side) for position in _choose(rng, kept, per_side))
    return base, churned, updated


class StreamWorkload(Workload):
    """In-process ``MatchingSession`` with an fsynced WAL under cyclic churn."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.ops_per_round = 3 * self.churn + 1
        self.wal = self.workdir / "wal"
        self.last_ids: Optional[List[Tuple[str, str]]] = None
        self._new_pairs = 0
        self._retracted = 0

    def _session(self, wal_path=None):
        from repro.incremental import MatchingSession

        return MatchingSession(
            self.model,
            bilateral=True,
            pruning=PRUNING_ONLINE,
            wal_path=wal_path,
            wal_sync=WAL_SYNC,
        )

    def setup(self) -> None:
        from repro.incremental import train_frozen_model

        dataset = seeded_dataset(self.spec, self.scale, self.order_seed)
        self.dataset = dataset
        self.model = train_frozen_model(
            dataset, bootstrap_fraction=0.5, pruning=PRUNING_ONLINE, seed=self.train_seed
        )
        self.base, self.churned, self.updated = split_churn(
            dataset.first, dataset.second, self.churn, self.churn_seed
        )
        self.session = self._session(self.wal)
        if self.tracer.enabled:
            # before the bulk load, so the set-up layers are seen too
            self._wrap_session()
        for side in (0, 1):
            self.session.insert_bulk(
                [record for record, record_side in self.base if record_side == side],
                side=side,
            )
        started = time.perf_counter()
        path = self.session.checkpoint()
        self.layer["snapshot.write_ms"] = (time.perf_counter() - started) * 1e3
        self.layer["snapshot.bytes"] = float(path.stat().st_size)

    def _wrap_session(self) -> None:
        tracer, session = self.tracer, self.session
        for method in ("insert", "update", "remove"):
            tracer.wrap(session, method, "session.mutate")
        tracer.wrap(session, "retained", "session.retained")
        tracer.wrap(session.index, "add_entity", "index.add")
        tracer.wrap(session.index, "remove_entity", "index.remove")
        tracer.wrap(session.index, "add_entities_bulk", "index.bulk_load")
        tracer.wrap(session.features, "generate_delta", "delta.features")
        tracer.wrap(session.features, "generate_all", "delta.generate_all")
        # the session pickles these three into every snapshot, so they are
        # wrapped on their classes (this process holds one session at a time)
        tracer.wrap(type(session.model), "score", "model.score")
        tracer.wrap(type(session.online), "admit", "session.online")
        tracer.wrap(type(session.online), "retract", "session.online")
        tracer.wrap(type(session.pruning), "prune", "pruning.prune.online")
        tracer.wrap(session.wal, "append_record", "wal.append")
        tracer.wrap(session.wal, "write_snapshot", "snapshot.write")

    def run_round(self) -> RoundSample:
        session, tracer = self.session, self.tracer
        clock = time.perf_counter
        ingest: List[float] = []
        for record, side in self.churned:
            with tracer.span("ingest"):
                started = clock()
                result = session.insert(record, side=side)
                ingest.append(clock() - started)
            self._new_pairs += result.num_new_pairs
        for record, side in self.updated:
            with tracer.span("ingest"):
                started = clock()
                session.update(record, side=side)
                ingest.append(clock() - started)
        with tracer.span("answer"):
            started = clock()
            answer = session.retained()
            answer_seconds = clock() - started
        for record, side in self.churned:
            with tracer.span("ingest"):
                started = clock()
                result = session.remove(record.entity_id, side=side)
                ingest.append(clock() - started)
            self._retracted += result.num_retracted_pairs
        ids = sorted(answer.retained_ids)
        self.last_ids = ids
        self.last_candidates = len(answer.candidates)
        sample = RoundSample(
            ingest,
            [answer_seconds],
            digest_of(flip_one_pair(ids) if self._broken() else ids),
        )
        self.rounds_run += 1
        return sample

    def prepare_recovery(self) -> None:
        session = self.session
        offset_before = session.wal.log_offset
        session.checkpoint()
        for _ in range(TAIL_ROUNDS):
            self.run_round()
        self.layer["recover.records_replayed"] = float(TAIL_ROUNDS * 3 * self.churn)
        self.layer["wal.bytes_per_op"] = (session.wal.log_offset - offset_before) / (
            TAIL_ROUNDS * 3 * self.churn
        )
        self.layer["index.slots"] = float(session.index.num_slots)
        self.layer["index.live_pairs"] = float(session.num_pairs)
        rounds = max(1, self.rounds_run)
        self.layer["index.new_pairs_per_insert"] = self._new_pairs / (rounds * self.churn)
        self.layer["index.retracted_pairs_per_remove"] = self._retracted / (
            rounds * self.churn
        )
        self.boundary_ids = sorted(session.retained().retained_ids)
        session.close()
        self._recoveries = 0

    def recover_once(self) -> Tuple[List[float], bool]:
        from repro.incremental import MatchingSession

        self._recoveries += 1
        copy = self.workdir / f"recover-{self._recoveries}"
        shutil.copytree(self.wal, copy)
        started = time.perf_counter()
        recovered = MatchingSession.recover(copy, sync=WAL_SYNC)
        replayed = time.perf_counter()
        ids = sorted(recovered.retained().retained_ids)
        answered = time.perf_counter()
        recovered.close()
        shutil.rmtree(copy)
        self.layer["recover.replay_ms"] = (replayed - started) * 1e3
        return [replayed - started, answered - replayed], ids == self.boundary_ids

    def verify(self) -> Tuple[bool, str]:
        """Mid-round answer == a fresh session bulk-loaded with the same records."""
        from repro.incremental import evaluate_retained_ids, ground_truth_id_pairs

        fresh = self._session()
        live = self.base + self.churned
        for side in (0, 1):
            fresh.insert_bulk(
                [record for record, record_side in live if record_side == side], side=side
            )
        reference = fresh.retained()
        truth = ground_truth_id_pairs(
            self.dataset.ground_truth, self.dataset.first, self.dataset.second
        )
        recall, precision = evaluate_retained_ids(reference, truth)
        self.layer.update(
            {
                "pruning.retained_pairs": float(len(self.last_ids)),
                "pruning.retained_ratio": len(self.last_ids) / max(1, self.last_candidates),
                "eval.recall": float(recall),
                "eval.precision": float(precision),
            }
        )
        same = sorted(reference.retained_ids) == self.last_ids
        return same, (
            f"{len(self.last_ids)} retained pairs vs {reference.retained_count} in a "
            f"fresh bulk-loaded session, recall {recall:.4f} precision {precision:.4f}"
        )


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------


def wire(record) -> Dict[str, Any]:
    return {"entity_id": record.entity_id, "attributes": dict(record.attributes)}


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants (Linux ``/proc``)."""
    found = [pid]
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for task in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                children = [int(child) for child in task.read_text().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def tree_peak_rss_mb(pid: int) -> float:
    total_kb = 0
    for member in process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def tree_usage(pid: int) -> Tuple[float, int]:
    """(kernel seconds, minor faults) summed over a process tree."""
    ticks = os.sysconf("SC_CLK_TCK")
    stime = 0.0
    faults = 0
    for member in process_tree(pid):
        try:
            fields = Path(f"/proc/{member}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        faults += int(fields[7])
        stime += int(fields[12]) / ticks
    return stime, faults


class Daemon:
    """One ``python -m repro serve`` subprocess and a client connection."""

    def __init__(self, arguments: List[str], log_path: Path) -> None:
        from repro.serve import ServeClient

        self.spawned = time.perf_counter()
        self._log = log_path.open("ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *arguments],
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        banner = self.process.stdout.readline()
        if not banner:
            self.stop()
            raise RuntimeError(
                f"the daemon exited before serving; see {log_path}"
            )
        self.serving = time.perf_counter()
        info = json.loads(banner)
        self.client = ServeClient(info["host"], info["port"], timeout=120.0)

    def stop(self) -> None:
        """SIGTERM (graceful: drain + final checkpoint) and wait."""
        if getattr(self, "client", None) is not None:
            self.client.close()
            self.client = None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _operation_sum(stats: Dict[str, Any], op: str) -> Any:
    entry = stats["metrics"]["operations"].get(op, {})
    count = int(entry.get("count", 0))
    return count, count * float(entry.get("mean_ms", 0.0))


def serve_layers_from_stats(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Server-side layer numbers of the timed rounds, from two ``stats`` calls."""

    def mean_ms(op: str) -> float:
        count0, sum0 = _operation_sum(before, op)
        count1, sum1 = _operation_sum(after, op)
        return (sum1 - sum0) / (count1 - count0) if count1 > count0 else 0.0

    def counter(name: str) -> float:
        return float(
            after["metrics"]["counters"].get(name, 0)
            - before["metrics"]["counters"].get(name, 0)
        )

    answers = sum(
        _operation_sum(after, op)[0] - _operation_sum(before, op)[0]
        for op in ("match", "top_k")
    )
    shipped = counter("delta_reads") + counter("full_reads")
    gauges = after["metrics"]["gauges"]
    return {
        "daemon.insert_server_ms": mean_ms("insert"),
        "daemon.remove_server_ms": mean_ms("remove"),
        "daemon.match_server_ms": mean_ms("match"),
        "router.view_apply_ms": mean_ms("view_apply"),
        "router.read_bytes_per_answer": counter("read_bytes_shipped") / max(1, answers),
        "router.delta_hit_ratio": counter("delta_reads") / shipped if shipped else 0.0,
        "router.full_reads": counter("full_reads"),
        "workers.replica_lag_records": max(
            (value for name, value in gauges.items() if name.endswith("_replica_lag_records")),
            default=0.0,
        ),
        "workers.shm_resident_mb": float(gauges.get("resident_shm_bytes", 0.0)) / 2**20,
    }


def _walk(span: Dict[str, Any]):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def serve_layers_from_events(directory: Path) -> Dict[str, float]:
    """Queue-wait and WAL-append means from the daemon's own event log."""
    from repro.obs.events import read_events

    waits: Dict[str, List[float]] = {"mutation": [], "read": []}
    appends: List[float] = []
    for event in read_events(directory):
        if event.get("type") != "request" or not event.get("spans"):
            continue
        if event.get("op") not in ("insert", "remove", "match", "top_k"):
            continue
        for span in _walk(event["spans"]):
            if span.get("name") == "queue-wait":
                queue = span.get("tags", {}).get("queue")
                if queue in waits:
                    waits[queue].append(float(span.get("ms", 0.0)))
            elif span.get("name") == "wal-append":
                appends.append(float(span.get("ms", 0.0)))

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "daemon.mutation_queue_wait_ms": mean(waits["mutation"]),
        "daemon.read_queue_wait_ms": mean(waits["read"]),
        "wal.append_ms": mean(appends),
    }


def serve_client_layers(client, answer: Dict[str, Any]) -> Dict[str, float]:
    """Ping round-trip and protocol codec cost on a captured match reply."""
    from repro.serve.protocol import FRAME_HEADER, decode_payload, encode_message

    pings = []
    for _ in range(50):
        started = time.perf_counter()
        client.ping()
        pings.append(time.perf_counter() - started)
    reply = {"id": 1, "ok": True, "result": answer}
    codec = []
    for _ in range(5):
        started = time.perf_counter()
        frame = encode_message(reply)
        _, crc = FRAME_HEADER.unpack(frame[: FRAME_HEADER.size])
        decode_payload(frame[FRAME_HEADER.size :], crc)
        codec.append(time.perf_counter() - started)
    return {
        "client.ping_ms": statistics.median(pings) * 1e3,
        "protocol.codec_ms": min(codec) * 1e3,
        "protocol.answer_bytes": float(len(frame)),
    }


def _pairs(answer: Dict[str, Any]) -> List[List[str]]:
    return [pair[:2] for pair in answer["retained"]]


class ServeWorkload(Workload):
    """``repro serve --shards 2`` driven through one ``ServeClient``.

    Its layers run in other processes, so its per-layer numbers come from
    the daemon's public ``stats`` op around the timed rounds and, in the
    traced pass, from the daemon's event log — not from harness spans.
    """

    in_process = False

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.group = self.churn // SERVE_GROUPS
        self.ops_per_round = 2 * self.churn + SERVE_GROUPS + 1
        self.wal = self.workdir / "wal"
        self.log = self.workdir / "daemon.log"
        self.events = self.workdir / "events"
        self.daemon: Optional[Daemon] = None
        self.last_answers: List[Dict[str, Any]] = []
        #: client-observed latency of every match since the harness last
        #: cleared it (top_k excluded)
        self.match_seconds: List[float] = []
        self._new_pairs = 0
        self._retracted = 0

    # the daemon trains its own frozen model from its command line — a fixed
    # configuration of the program, independent of the harness seed
    def _model_arguments(self) -> List[str]:
        return ["--dataset", self.spec.dataset, "--scale", str(self.scale), "--seed", "0"]

    def setup(self) -> None:
        dataset = seeded_dataset(self.spec, self.scale, self.order_seed)
        self.dataset = dataset
        self.base, self.churned, _ = split_churn(
            dataset.first, dataset.second, self.churn, self.churn_seed
        )
        arguments = ["--wal", str(self.wal), "--shards", str(SERVE_SHARDS)]
        self.traced = self.tracer.enabled
        if self.traced:
            arguments += ["--event-log", str(self.events)]
        self.daemon = Daemon(arguments + self._model_arguments(), self.log)
        client = self.daemon.client
        for side in (0, 1):
            client.insert_bulk(
                [wire(record) for record, record_side in self.base if record_side == side],
                side=side,
            )
        client.match()  # first contact ships every shard in full
        started = time.perf_counter()
        client.checkpoint()
        self.layer["snapshot.write_ms"] = (time.perf_counter() - started) * 1e3
        self.layer["snapshot.bytes"] = float(
            max(self.wal.glob("snapshot-*.snap")).stat().st_size
        )

    def run_round(self) -> RoundSample:
        client, tracer = self.daemon.client, self.tracer
        clock = time.perf_counter
        ingest: List[float] = []
        answers: List[float] = []
        observed: List[Dict[str, Any]] = []
        for group in range(SERVE_GROUPS):
            for record, side in self.churned[group * self.group : (group + 1) * self.group]:
                with tracer.span("ingest"):
                    started = clock()
                    result = client.insert(wire(record), side=side)
                    ingest.append(clock() - started)
                self._new_pairs += result["num_new_pairs"]
            with tracer.span("answer"):
                started = clock()
                answer = client.match()
                answers.append(clock() - started)
            observed.append(answer)
        probe, probe_side = self.churned[0]
        with tracer.span("answer"):
            started = clock()
            top = client.top_k(probe.entity_id, side=probe_side, k=10)
            answers.append(clock() - started)
        for record, side in self.churned:
            with tracer.span("ingest"):
                started = clock()
                result = client.remove(record.entity_id, side=side)
                ingest.append(clock() - started)
            self._retracted += result["num_retracted_pairs"]
        self.last_answers = observed
        self.match_seconds.extend(answers[:SERVE_GROUPS])
        pairs = [_pairs(answer) for answer in observed]
        if self._broken():
            pairs[0] = flip_one_pair(pairs[0])
        sample = RoundSample(
            ingest,
            answers,
            digest_of(pairs, [match["entity_id"] for match in top["matches"]]),
        )
        self.rounds_run += 1
        return sample

    def begin_timed(self) -> None:
        self.match_seconds.clear()
        self._stats_before = self.daemon.client.stats()

    def end_timed(self) -> None:
        client = self.daemon.client
        self.layer.update(serve_layers_from_stats(self._stats_before, client.stats()))
        self.layer.update(serve_client_layers(client, self.last_answers[-1]))
        self.layer["serve.wire_ms"] = (
            statistics.fmean(self.match_seconds) * 1e3
            - self.layer["daemon.match_server_ms"]
        )

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.daemon.process.pid)

    def usage(self) -> Tuple[float, int]:
        return tree_usage(self.daemon.process.pid)

    def prepare_recovery(self) -> None:
        client = self.daemon.client
        before = client.stats()
        client.checkpoint()
        for _ in range(TAIL_ROUNDS):
            self.run_round()
        after = client.stats()
        tail_ops = TAIL_ROUNDS * 2 * self.churn
        self.layer["recover.records_replayed"] = float(tail_ops)
        self.layer["wal.bytes_per_op"] = (
            after["metrics"]["gauges"]["wal_size_bytes"]
            - before["metrics"]["gauges"]["wal_size_bytes"]
        ) / tail_ops
        self.layer["index.slots"] = float(
            max((shard.get("slots", 0) for shard in after["shards"]), default=0)
        )
        self.layer["index.live_pairs"] = float(after["daemon"]["pairs"])
        rounds = max(1, self.rounds_run)
        self.layer["index.new_pairs_per_insert"] = self._new_pairs / (rounds * self.churn)
        self.layer["index.retracted_pairs_per_remove"] = self._retracted / (
            rounds * self.churn
        )
        self.boundary = _pairs(client.match())
        # every acked write is fsynced, so a copy of the idle directory is
        # the state a crash right now would leave behind
        self.saved = self.workdir / "wal-saved"
        shutil.copytree(self.wal, self.saved)
        self.daemon.stop()
        self.daemon = None
        if self.traced:
            self.layer.update(serve_layers_from_events(self.events))
        self._recoveries = 0

    def recover_once(self) -> Tuple[List[float], bool]:
        self._recoveries += 1
        copy = self.workdir / f"recover-{self._recoveries}"
        shutil.copytree(self.saved, copy)
        started = time.perf_counter()
        daemon = Daemon(
            ["--wal", str(copy), "--shards", str(SERVE_SHARDS), "--recover"], self.log
        )
        try:
            answer = daemon.client.match()
            answered = time.perf_counter()
        finally:
            daemon.stop()
        shutil.rmtree(copy)
        stages = [daemon.serving - started, answered - daemon.serving]
        self.layer["serve.start_ms"] = stages[0] * 1e3
        self.layer["serve.first_answer_ms"] = stages[1] * 1e3
        return stages, _pairs(answer) == self.boundary

    def verify(self) -> Tuple[bool, str]:
        """Every match answer == an in-process session fed the same ops."""
        from repro.datasets import load_benchmark
        from repro.incremental import (
            MatchingSession,
            evaluate_retained_ids,
            ground_truth_id_pairs,
            train_frozen_model,
        )

        # the model `repro serve` trains from the same command line
        model = train_frozen_model(
            load_benchmark(self.spec.dataset, seed=0, scale=self.scale),
            bootstrap_fraction=0.5,
            pruning=PRUNING_ONLINE,
            training_size=50,
            seed=0,
        )
        session = MatchingSession(model, bilateral=True, pruning=PRUNING_ONLINE)
        for side in (0, 1):
            session.insert_bulk(
                [record for record, record_side in self.base if record_side == side],
                side=side,
            )
        same = True
        reference_seconds: List[float] = []
        for group, answer in enumerate(self.last_answers):
            for record, side in self.churned[group * self.group : (group + 1) * self.group]:
                session.insert(record, side=side)
            started = time.perf_counter()
            reference = session.retained()
            reference_seconds.append(time.perf_counter() - started)
            same = same and sorted(list(pair) for pair in reference.retained_ids) == _pairs(
                answer
            )
        truth = ground_truth_id_pairs(
            self.dataset.ground_truth, self.dataset.first, self.dataset.second
        )
        recall, precision = evaluate_retained_ids(reference, truth)
        last = self.last_answers[-1]
        self.layer.update(
            {
                "pruning.retained_pairs": float(len(last["retained"])),
                "pruning.retained_ratio": len(last["retained"])
                / max(1, last["num_candidates"]),
                "eval.recall": float(recall),
                "eval.precision": float(precision),
                "serve.overhead_ms": (
                    sum(self.match_seconds) / len(self.match_seconds)
                    - sum(reference_seconds) / len(reference_seconds)
                )
                * 1e3,
            }
        )
        return same, (
            f"{len(self.last_answers)} match answers vs an in-process session, "
            f"{len(last['retained'])} retained pairs, recall {recall:.4f} "
            f"precision {precision:.4f}"
        )

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


def make_workload(spec: WorkloadSpec, *args: Any, **kwargs: Any) -> Workload:
    if spec.name.startswith("batch_"):
        return BatchWorkload(spec, *args, **kwargs)
    if spec.name == "stream_churn":
        return StreamWorkload(spec, *args, **kwargs)
    return ServeWorkload(spec, *args, **kwargs)
