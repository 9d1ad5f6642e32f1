"""Command-line interface for the reproduction.

Usage::

    python -m repro list                       # list the available experiments
    python -m repro run table2                 # regenerate one table/figure
    python -m repro run fig5 --datasets AbtBuy DblpAcm --repetitions 2
    python -m repro quickstart                 # run the quickstart pipeline
    python -m repro stream --dataset DblpAcm   # incremental streaming session
    python -m repro serve --wal /tmp/wal       # persistent matching daemon
    python -m repro client stats --port 9876   # query a running daemon
    python -m repro trace --log /tmp/events    # inspect an event log

Every ``run`` command prints the rows/series the paper reports for that
experiment, beside the paper's own values where it gives them.  Each id is
an entry of :data:`repro.experiments.EXPERIMENTS`, which
``benchmarks/bench_paper.py`` runs too: ``repro run <id>`` runs the entry's
fast case, and each flag given overrides that field of its configuration.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Iterator, Optional, Sequence

from . import __version__
from .core.pruning import PRUNING_ALGORITHMS
from .datasets.registry import CLEAN_CLEAN_ORDER


def _experiments():
    """The experiment registry, imported only by ``list`` and ``run``."""
    from .experiments.registry import EXPERIMENTS

    return EXPERIMENTS


class _ExperimentIds:
    """``repro run``'s choices: the registry's ids, read only when ``run``
    parses or prints its help (its ``metavar`` keeps argparse from listing
    them while the parser is built), so no other command loads them."""

    def __contains__(self, name: object) -> bool:
        return name in _experiments()

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(_experiments()))


def _run_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    """``repro run <id>``: the entry's fast case, each flag given overriding
    its field of the entry's configuration; a flag setting a field the entry
    does not read (:attr:`~repro.experiments.Experiment.reads`) is refused."""
    entry = _experiments()[args.experiment]
    overrides = {}
    for flag, options in _RUN_FLAGS.items():
        value = getattr(args, options["dest"])
        if value is None:
            continue
        if options["dest"] not in entry.reads:
            parser.error(f"argument {flag}: experiment {args.experiment!r} does not read it")
        overrides[options["dest"]] = value
    return entry.report(entry.run(replace(entry.config, **overrides), False))


def _run_quickstart(args: argparse.Namespace) -> str:
    from .blocking.candidate_extraction import prepare_blocks
    from .core.pipeline import GeneralizedSupervisedMetaBlocking
    from .datasets.benchmarks import load_benchmark
    from .evaluation.metrics import evaluate_candidates, evaluate_result
    from .utils.timing import StageTimer

    dataset = load_benchmark(args.dataset, seed=args.seed)
    prep_timer = StageTimer()
    prepared = prepare_blocks(dataset.first, dataset.second, timer=prep_timer)
    before = evaluate_candidates(prepared.candidates, dataset.ground_truth)
    pipeline = GeneralizedSupervisedMetaBlocking(
        pruning="BLAST", training_size=args.training_size, seed=args.seed
    )
    result = pipeline.run(
        prepared.blocks,
        prepared.candidates,
        dataset.ground_truth,
        stats=prepared.statistics(),
    )
    after = evaluate_result(result, dataset.ground_truth)
    stages = prep_timer.merge(result.timer)
    stage_text = " ".join(
        f"{name}={seconds:.3f}s" for name, seconds in stages.as_dict().items()
    )
    return (
        f"{dataset.name}: {len(prepared.candidates)} candidate pairs\n"
        f"  before meta-blocking: recall={before.recall:.3f} precision={before.precision:.5f}\n"
        f"  after  meta-blocking: recall={after.recall:.3f} precision={after.precision:.3f} "
        f"f1={after.f1:.3f} ({result.retained_count} pairs retained)\n"
        f"  RT by stage: {stage_text} (total {stages.total:.3f}s)"
    )


def _run_stream(args: argparse.Namespace, parser: argparse.ArgumentParser) -> str:
    from .datasets.benchmarks import load_benchmark
    from .datasets.loaders import load_clean_clean_directory
    from .incremental.session import MatchingSession
    from .incremental.stream import (
        StreamTrainingError,
        evaluate_retained_ids,
        ground_truth_id_pairs,
        live_truth_id_pairs,
        replay_stream,
        train_frozen_model,
    )

    if args.recover:
        if args.wal is None:
            parser.error("--recover requires --wal DIR")
        try:
            session = MatchingSession.recover(args.wal)
        except (FileNotFoundError, ValueError) as error:
            parser.error(f"cannot recover from {args.wal}: {error}")
        final = session.retained()
        session.close()
        return (
            f"recovered session from {args.wal}\n"
            f"  {session.index.num_entities} live entities, "
            f"{session.num_pairs} candidate pairs\n"
            f"  online policy {session.online.name}, threshold "
            f"{session.online.threshold:.3f}\n"
            f"  final {session.pruning.name} answer: "
            f"{final.retained_count} pairs retained"
        )

    if args.dataset_dir is not None:
        try:
            dataset = load_clean_clean_directory(args.dataset_dir)
        except FileNotFoundError as error:
            if "ground-truth" in str(error):
                parser.error(
                    "repro stream needs labelled duplicates to train its frozen "
                    f"classifier, but the dataset has no ground truth: {error}"
                )
            parser.error(f"cannot load the dataset directory: {error}")
    else:
        dataset = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)

    try:
        model = train_frozen_model(
            dataset,
            bootstrap_fraction=args.bootstrap,
            pruning=args.pruning,
            training_size=args.training_size,
            seed=args.seed,
        )
    except StreamTrainingError as error:
        parser.error(str(error))

    try:
        replay = replay_stream(
            dataset,
            model,
            pruning=args.pruning,
            limit=args.limit,
            delete_fraction=args.deletes,
            churn_seed=args.seed,
            wal_path=args.wal,
            snapshot_every=args.snapshot_every,
        )
    except ValueError as error:
        parser.error(str(error))
    final = replay.session.retained()
    # judge recall against the duplicates the *live* index can still retain:
    # entities never streamed (--limit) or since retracted (--deletes) are
    # out of scope, not misses
    truth = live_truth_id_pairs(
        replay.session.index,
        ground_truth_id_pairs(dataset.ground_truth, dataset.first, dataset.second),
    )
    recall, precision = evaluate_retained_ids(final, truth)
    mean, p50, p95 = replay.latency_percentiles()
    wal_text = ""
    if args.wal is not None:
        replay.session.close()
        recovered = MatchingSession.recover(args.wal)
        identical = recovered.retained().retained_id_set() == final.retained_id_set()
        recovered.close()
        wal_text = (
            f"  WAL: journaled to {args.wal} "
            f"({len(recovered.wal.snapshot_paths())} snapshots), recovery "
            f"check: {'identical retained set' if identical else 'MISMATCH'}\n"
        )
    churn_text = ""
    if replay.num_deletes:
        churn_text = (
            f"  deletes: {replay.num_deletes} entities retracted "
            f"({int(replay.retraction_sizes.sum())} pairs, mean "
            f"{replay.delete_seconds.mean() * 1e3:.3f}ms per delete)\n"
        )
    return (
        f"{dataset.name}: streamed {replay.num_inserts} entities "
        f"({replay.session.num_pairs} candidate pairs)\n"
        f"  per-insert latency: mean={mean * 1e3:.3f}ms p50={p50 * 1e3:.3f}ms "
        f"p95={p95 * 1e3:.3f}ms  throughput={replay.throughput:,.0f} inserts/s\n"
        f"{wal_text}"
        f"{churn_text}"
        f"  online matches reported: {int(replay.online_matches.sum())} "
        f"(policy {replay.session.online.name}, threshold "
        f"{replay.session.online.threshold:.3f})\n"
        f"  final {args.pruning} answer: {final.retained_count} pairs retained, "
        f"recall={recall:.3f} precision={precision:.3f}"
    )


def _run_serve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Start the persistent matching daemon (``repro serve``)."""
    from .serve.daemon import MatchingDaemon

    model = None
    if not args.recover:
        from .datasets.benchmarks import load_benchmark
        from .incremental.stream import StreamTrainingError, train_frozen_model

        # the benchmark is only used to train the frozen classifier the
        # daemon scores with; the served index starts empty
        dataset = load_benchmark(args.dataset, seed=args.seed, scale=args.scale)
        try:
            model = train_frozen_model(
                dataset,
                bootstrap_fraction=args.bootstrap,
                pruning=args.pruning,
                training_size=args.training_size,
                seed=args.seed,
            )
        except StreamTrainingError as error:
            parser.error(str(error))
    try:
        daemon = MatchingDaemon(
            args.wal,
            model,
            host=args.host,
            port=args.port,
            num_shards=args.shards,
            bilateral=True,
            pruning=args.pruning,
            snapshot_every=args.snapshot_every,
            wal_sync=args.wal_sync,
            recover=args.recover,
            announce=True,
            heartbeat_interval=args.heartbeat_interval,
            hang_timeout=args.hang_timeout,
            max_pending=args.max_pending,
            event_log=args.event_log,
            slow_request_ms=args.slow_ms,
        )
    except (OSError, ValueError) as error:
        parser.error(f"cannot start the daemon: {error}")
    return daemon.serve()


def _run_client(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """One request against a running daemon (``repro client``)."""
    import json

    from .datamodel.entity import make_profile
    from .obs.render import render_stats
    from .serve.client import ServeClient, ServeError
    from .serve.protocol import ProtocolError

    try:
        client = ServeClient(
            args.host,
            args.port,
            timeout=args.timeout,
            connect_timeout=args.connect_timeout,
            retries=args.retries,
            deadline_ms=args.deadline_ms,
        )
    except OSError as error:
        parser.error(f"cannot connect to {args.host}:{args.port}: {error}")
    try:
        action = args.action
        if action == "ping":
            print(json.dumps(client.ping(), sort_keys=True))
        elif action == "stats":
            print(render_stats(client.stats()))
        elif action == "metrics":
            print(client.metrics()["text"], end="")
        elif action == "match":
            answer = client.match()
            retained = answer["retained"]
            print(
                f"{len(retained)} retained pairs of "
                f"{answer['num_candidates']} candidates "
                f"at WAL offset {answer['offset']}"
            )
            for id_a, id_b, probability in retained[: args.limit]:
                print(f"  {id_a} ~ {id_b}  p={probability:.6f}")
            if len(retained) > args.limit:
                print(f"  ... and {len(retained) - args.limit} more")
        elif action == "top-k":
            if args.id is None:
                parser.error("top-k needs --id")
            answer = client.top_k(args.id, side=args.side, k=args.k)
            print(
                f"top {len(answer['matches'])} matches of {args.id!r} "
                f"at WAL offset {answer['offset']}"
            )
            for match in answer["matches"]:
                print(
                    f"  {match['entity_id']} (side {match['side']})  "
                    f"p={match['probability']:.6f}"
                )
        elif action == "insert":
            if args.id is None or args.text is None:
                parser.error("insert needs --id and --text")
            result = client.insert(
                make_profile(args.id, text=args.text), side=args.side
            )
            matches = ", ".join(
                f"{entity_id} (p={probability:.3f})"
                for entity_id, probability in result["matches"]
            )
            print(
                f"inserted {result['entity_id']!r} as node {result['node']}: "
                f"{result['num_new_pairs']} new pairs"
                + (f"; online matches: {matches}" if matches else "")
            )
        elif action == "remove":
            if args.id is None:
                parser.error("remove needs --id")
            result = client.remove(args.id, side=args.side)
            print(
                f"removed {result['entity_id']!r}: "
                f"{result['num_retracted_pairs']} pairs retracted"
            )
        elif action == "checkpoint":
            result = client.checkpoint()
            print(f"checkpoint written: {result['snapshot']}")
        elif action == "shutdown":
            client.shutdown()
            print("daemon is shutting down")
        else:  # pragma: no cover - argparse restricts the choices
            parser.error(f"unknown client action {action!r}")
    except ServeError as error:
        print(f"server error: {error}", file=sys.stderr)
        return 1
    except (ProtocolError, OSError) as error:
        print(f"connection error: {error}", file=sys.stderr)
        return 1
    finally:
        client.close()
    return 0


def _run_trace(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Inspect a structured event log (``repro trace``)."""
    import os

    from .obs.events import EVENT_LOG_ENV, read_events, summarize_events
    from .obs.render import render_event, render_event_summary, render_span_tree

    directory = args.log or os.environ.get(EVENT_LOG_ENV)
    if not directory:
        parser.error(
            "no event log: pass --log DIR or set the REPRO_EVENT_LOG "
            "environment variable"
        )
    events = read_events(directory)
    if not events:
        print(f"no events under {directory}")
        return 0
    if args.id is not None:
        matched = [event for event in events if event.get("trace") == args.id]
        if not matched:
            print(f"no events for trace {args.id!r} under {directory}", file=sys.stderr)
            return 1
        for event in matched:
            print(render_event(event))
            if event.get("spans"):
                print(render_span_tree(event["spans"]))
        return 0
    if args.slow is not None:
        requests = [event for event in events if event.get("type") == "request"]
        requests.sort(key=lambda event: -float(event.get("duration_ms", 0.0)))
        for event in requests[: max(0, args.slow)]:
            print(render_event(event))
            if event.get("spans"):
                print(render_span_tree(event["spans"]))
        return 0
    if args.tail is not None:
        for event in events[-max(0, args.tail):]:
            print(render_event(event))
        return 0
    print(render_event_summary(summarize_events(events)))
    return 0


def positive_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_float(text: str) -> float:
    """An argparse ``type``: a finite number above 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be above 0 and finite, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """An argparse ``type``: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def port_number(text: str) -> int:
    """An argparse ``type``: a TCP port, 0-65535 (0 = any free port)."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port in 0-65535, got {value}")
    return value


def non_negative_float(text: str) -> float:
    """An argparse ``type``: a number of at least 0."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def training_set_size(text: str) -> int:
    """An argparse ``type``: labelled pairs to train on, at least 2 (one per class)."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {value}")
    return value


def fraction_above_zero(text: str) -> float:
    """An argparse ``type``: a fraction in (0, 1]."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be a fraction in (0, 1], got {value}")
    return value


def fraction_below_one(text: str) -> float:
    """An argparse ``type``: a fraction in [0, 1)."""
    value = float(text)
    if not 0 <= value < 1:
        raise argparse.ArgumentTypeError(f"must be a fraction in [0, 1), got {value}")
    return value


#: ``repro run``'s flags, each overriding the ``ExperimentConfig`` field its
#: ``dest`` names (no default: only a flag given overrides the entry's value)
_RUN_FLAGS = {
    "--datasets": dict(
        dest="dataset_names", nargs="+", choices=CLEAN_CLEAN_ORDER,
        help="Clean-Clean benchmark profiles to use",
    ),
    "--repetitions": dict(dest="repetitions", type=positive_int),
    "--training-size": dict(dest="training_size", type=training_set_size),
    "--seed": dict(dest="seed", type=int),
    "--max-set-size": dict(dest="max_set_size", type=positive_int),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Generalized Supervised Meta-blocking — reproduction CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiment ids")

    run_parser = subparsers.add_parser("run", help="regenerate one table/figure")
    run_parser.add_argument(
        "experiment", metavar="EXPERIMENT", choices=_ExperimentIds(),
        help="one of %(choices)s ('repro list' names what each regenerates)",
    )
    for flag, options in _RUN_FLAGS.items():
        run_parser.add_argument(flag, **options)

    quickstart_parser = subparsers.add_parser("quickstart", help="run the quickstart pipeline")
    quickstart_parser.add_argument(
        "--dataset",
        default="DblpAcm",
        choices=CLEAN_CLEAN_ORDER,
        help="generated Clean-Clean benchmark to run the pipeline on",
    )
    quickstart_parser.add_argument(
        "--training-size", type=training_set_size, default=500, dest="training_size"
    )
    quickstart_parser.add_argument("--seed", type=int, default=0)

    stream_parser = subparsers.add_parser(
        "stream",
        help="insert entities one at a time through the incremental "
        "meta-blocking session (repro.incremental)",
    )
    stream_parser.add_argument(
        "--dataset",
        default="DblpAcm",
        choices=CLEAN_CLEAN_ORDER,
        help="generated Clean-Clean benchmark to stream",
    )
    stream_parser.add_argument(
        "--dataset-dir",
        default=None,
        help="stream a CSV dataset directory (first.csv, second.csv, "
        "ground_truth.csv) instead of a generated benchmark",
    )
    stream_parser.add_argument(
        "--bootstrap",
        type=fraction_above_zero,
        default=0.5,
        help="fraction of each collection used to train the frozen classifier",
    )
    stream_parser.add_argument(
        "--pruning",
        default="BLAST",
        choices=sorted(PRUNING_ALGORITHMS),
        help="batch pruning algorithm applied by the exact finalisation",
    )
    stream_parser.add_argument(
        "--limit", type=non_negative_int, default=None,
        help="cap the number of streamed inserts",
    )
    stream_parser.add_argument(
        "--deletes",
        type=fraction_below_one,
        default=0.0,
        help="churn fraction: probability, after each insert, of retracting "
        "one random live entity (exercises the dynamic index)",
    )
    stream_parser.add_argument(
        "--scale", type=positive_float, default=None,
        help="scale factor for the generated benchmark (smaller = faster)",
    )
    stream_parser.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="journal every session mutation to a write-ahead log in DIR "
        "(repro.persistence); after streaming, the session is recovered "
        "from the log and checked against the live answer",
    )
    stream_parser.add_argument(
        "--recover",
        action="store_true",
        help="skip training and streaming: recover the session persisted "
        "in --wal DIR and print its summary",
    )
    stream_parser.add_argument(
        "--snapshot-every",
        type=positive_int,
        default=None,
        dest="snapshot_every",
        metavar="N",
        help="write an automatic compacted checkpoint every N mutations "
        "while journaling (default: only the bootstrap snapshot)",
    )
    stream_parser.add_argument(
        "--training-size", type=training_set_size, default=50, dest="training_size"
    )
    stream_parser.add_argument("--seed", type=int, default=0)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the persistent matching daemon (repro.serve): WAL-backed "
        "ingest with shard-affine workers and snapshot-consistent reads",
    )
    serve_parser.add_argument(
        "--wal",
        required=True,
        metavar="DIR",
        help="write-ahead log directory — the daemon's durable state",
    )
    serve_parser.add_argument(
        "--recover",
        action="store_true",
        help="resume the state persisted in --wal instead of starting empty",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=port_number, default=0,
        help="TCP port (0 = pick a free port; the bound port is announced "
        "on stdout as a JSON line)",
    )
    serve_parser.add_argument(
        "--shards", type=positive_int, default=2,
        help="shard worker processes serving reads (signature-sharded "
        "replicas of the WAL)",
    )
    serve_parser.add_argument(
        "--dataset",
        default="DblpAcm",
        choices=CLEAN_CLEAN_ORDER,
        help="benchmark used to train the frozen classifier of a fresh "
        "daemon (ignored with --recover)",
    )
    serve_parser.add_argument(
        "--bootstrap", type=fraction_above_zero, default=0.5,
        help="fraction of the dataset used to train the frozen classifier",
    )
    serve_parser.add_argument(
        "--pruning", default="BLAST", choices=sorted(PRUNING_ALGORITHMS),
        help="batch pruning algorithm behind the 'match' endpoint",
    )
    serve_parser.add_argument(
        "--snapshot-every", type=positive_int, default=None, dest="snapshot_every",
        metavar="N", help="automatic checkpoint every N mutations",
    )
    serve_parser.add_argument(
        "--wal-sync", default="always", choices=("always", "batch"),
        dest="wal_sync", help="fsync per record (default) or on checkpoint only",
    )
    serve_parser.add_argument("--scale", type=positive_float, default=None)
    serve_parser.add_argument(
        "--training-size", type=training_set_size, default=50, dest="training_size"
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--heartbeat-interval", type=positive_float, default=1.0,
        dest="heartbeat_interval", metavar="SECONDS",
        help="supervisor heartbeat period for the shard workers",
    )
    serve_parser.add_argument(
        "--hang-timeout", type=positive_float, default=5.0, dest="hang_timeout",
        metavar="SECONDS",
        help="missed-heartbeat / stuck-request window before a worker is "
        "declared wedged and respawned",
    )
    serve_parser.add_argument(
        "--max-pending", type=positive_int, default=256, dest="max_pending",
        metavar="N",
        help="bound on each dispatch queue; excess requests are shed with "
        "a typed 'overloaded' error",
    )
    serve_parser.add_argument(
        "--event-log", default=None, dest="event_log", metavar="DIR",
        help="write the structured JSON-lines event log (requests with "
        "their span trees, WAL, supervision, faults) to DIR; defaults to "
        "$REPRO_EVENT_LOG; shard workers inherit the sink",
    )
    serve_parser.add_argument(
        "--slow-ms", type=non_negative_float, default=None, dest="slow_ms",
        metavar="MS",
        help="also journal a slow_request event for any request at or "
        "above this many milliseconds",
    )

    client_parser = subparsers.add_parser(
        "client",
        help="send one request to a running repro serve daemon",
    )
    client_parser.add_argument(
        "action",
        choices=(
            "ping", "stats", "metrics", "match", "top-k", "insert", "remove",
            "checkpoint", "shutdown",
        ),
    )
    client_parser.add_argument("--host", default="127.0.0.1")
    client_parser.add_argument("--port", type=port_number, required=True)
    client_parser.add_argument(
        "--timeout", type=positive_float, default=60.0,
        help="per-request socket timeout in seconds",
    )
    client_parser.add_argument(
        "--connect-timeout", type=non_negative_float, default=5.0,
        dest="connect_timeout", metavar="SECONDS",
        help="total budget for connecting (retries while the daemon's "
        "listener is still binding; 0 = one attempt)",
    )
    client_parser.add_argument(
        "--retries", type=non_negative_int, default=2,
        help="re-send budget for retryable failures (idempotent ops, "
        "'overloaded' sheds, unsent requests)",
    )
    client_parser.add_argument(
        "--deadline-ms", type=positive_float, default=None, dest="deadline_ms",
        metavar="MS", help="server-enforced per-request deadline",
    )
    client_parser.add_argument("--id", default=None, help="entity id")
    client_parser.add_argument(
        "--text", default=None, help="profile text for 'insert'"
    )
    client_parser.add_argument(
        "--side", type=int, default=0, choices=(0, 1),
        help="collection side of the entity",
    )
    client_parser.add_argument(
        "-k", type=non_negative_int, default=10, help="result count for 'top-k'"
    )
    client_parser.add_argument(
        "--limit", type=non_negative_int, default=20,
        help="retained pairs printed by 'match'",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect a structured event log (repro.obs): render one "
        "request's span tree by trace id, tail recent events, or "
        "summarize the log",
    )
    trace_parser.add_argument(
        "id", nargs="?", default=None,
        help="trace id to render (the 'trace' field of responses and "
        "event records)",
    )
    trace_parser.add_argument(
        "--log", default=None, metavar="DIR",
        help="event-log directory (defaults to $REPRO_EVENT_LOG)",
    )
    trace_parser.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="print the last N events, merged across processes",
    )
    trace_parser.add_argument(
        "--slow", type=int, default=None, metavar="N",
        help="print the N slowest requests with their span trees",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("Available experiments:")
        for name, entry in _experiments().items():
            print(f"  {name:<10} {entry.title}")
        return 0
    if args.command == "quickstart":
        print(_run_quickstart(args))
        return 0
    if args.command == "stream":
        print(_run_stream(args, parser))
        return 0
    if args.command == "serve":
        return _run_serve(args, parser)
    if args.command == "client":
        return _run_client(args, parser)
    if args.command == "trace":
        return _run_trace(args, parser)
    if args.command == "run":
        print(_run_experiment(args, parser))
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
