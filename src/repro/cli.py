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

Every ``run`` command prints the same rows/series the paper reports for that
experiment (the benches in ``benchmarks/`` are the pytest-integrated variant
of the same calls).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Sequence

from . import __version__
from . import experiments as ex
from .core.pruning import PRUNING_ALGORITHMS
from .datasets.registry import CLEAN_CLEAN_ORDER, FAST_DATASET_SUBSET


def _config_from_args(args: argparse.Namespace) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(
        dataset_names=tuple(args.datasets),
        repetitions=args.repetitions,
        training_size=args.training_size,
        seed=args.seed,
    )


def _run_table2(args: argparse.Namespace) -> str:
    rows = ex.run_block_quality(tuple(args.datasets), seed=args.seed)
    return ex.format_block_quality(rows)


def _run_fig5(args: argparse.Namespace) -> str:
    return ex.format_pruning_selection(
        ex.run_figure5(_config_from_args(args)), "Figure 5 — weight-based pruning algorithms"
    )


def _run_fig6(args: argparse.Namespace) -> str:
    return ex.format_pruning_selection(
        ex.run_figure6(_config_from_args(args)), "Figure 6 — cardinality-based pruning algorithms"
    )


def _run_tables34(args: argparse.Namespace) -> str:
    parts = []
    for algorithm in ("BLAST", "RCNP"):
        result = ex.run_feature_selection(
            algorithm, _config_from_args(args), max_set_size=args.max_set_size
        )
        parts.append(ex.format_feature_selection(result))
    return "\n\n".join(parts)


def _run_fig8(args: argparse.Namespace) -> str:
    return ex.format_figure8(ex.run_figure8(_config_from_args(args)))


def _run_fig10(args: argparse.Namespace) -> str:
    return ex.format_figure10(
        ex.run_figure10(_config_from_args(args), dataset_names=tuple(args.datasets[:2]))
    )


def _run_training_size(args: argparse.Namespace) -> str:
    parts = []
    for algorithm, figure in (("BLAST", "11"), ("RCNP", "14")):
        points = ex.run_training_size_sweep(
            algorithm, _config_from_args(args), sizes=ex.FAST_TRAINING_SIZES
        )
        parts.append(
            ex.format_training_size(points, f"Figure {figure} — training-set size for {algorithm}")
        )
    return "\n\n".join(parts)


def _run_fig12(args: argparse.Namespace) -> str:
    snapshots = ex.run_probability_density(
        args.datasets[0], training_sizes=(50, 200, 500), config=_config_from_args(args)
    )
    return ex.format_probability_density(snapshots)


def _run_table5(args: argparse.Namespace) -> str:
    return ex.format_final_comparison(ex.run_table5(_config_from_args(args)))


def _run_table7(args: argparse.Namespace) -> str:
    return ex.format_final_comparison(ex.run_table7(_config_from_args(args)))


def _run_fig1516(args: argparse.Namespace) -> str:
    distributions = ex.run_common_block_distribution(
        tuple(args.datasets), _config_from_args(args)
    )
    return ex.format_common_blocks(
        distributions, "Figures 15/16 — duplicates per number of common blocks"
    )


def _run_scalability(args: argparse.Namespace) -> str:
    config = ex.ExperimentConfig(repetitions=args.repetitions, seed=args.seed)
    result = ex.run_scalability(config, dataset_names=("D10K", "D50K", "D100K"), scale=0.02)
    table6 = ex.run_table6("D100K", iterations=3, config=config, scale=0.01)
    return "\n\n".join(
        [ex.format_scalability(result), ex.format_speedups(result), ex.format_table6(table6)]
    )


#: Experiment ids accepted by ``python -m repro run <id>``.
EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table2": _run_table2,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "tables3-4": _run_tables34,
    "fig8": _run_fig8,
    "fig10": _run_fig10,
    "fig11-14": _run_training_size,
    "fig12": _run_fig12,
    "table5": _run_table5,
    "table7": _run_table7,
    "fig15-16": _run_fig1516,
    "fig17-18": _run_scalability,
}


def _run_quickstart(args: argparse.Namespace) -> str:
    from .blocking.candidate_extraction import prepare_blocks
    from .core.pipeline import GeneralizedSupervisedMetaBlocking
    from .datasets.benchmarks import load_benchmark
    from .evaluation.metrics import evaluate_candidates, evaluate_result
    from .utils.timing import StageTimer

    dataset = load_benchmark(args.datasets[0], seed=args.seed)
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

    if not 0.0 < args.bootstrap <= 1.0:
        parser.error("--bootstrap must be a fraction in (0, 1]")
    if args.top_k < 1:
        parser.error("--top-k must be at least 1")
    if not 0.0 <= args.deletes < 1.0:
        parser.error("--deletes must be a fraction in [0, 1)")
    if args.snapshot_every is not None and args.snapshot_every < 1:
        parser.error("--snapshot-every must be at least 1")
    if args.recover:
        if args.wal is None:
            parser.error("--recover requires --wal DIR")
        try:
            session = MatchingSession.recover(args.wal)
        except (FileNotFoundError, ValueError) as error:
            parser.error(f"cannot recover from {args.wal}: {error}")
        final = session.retained()
        session.close()
        online_text = ""
        if session.online is not None:
            online_text = (
                f"  online policy {session.online.name}, threshold "
                f"{session.online.threshold:.3f}\n"
            )
        return (
            f"recovered session from {args.wal}\n"
            f"  {session.index.num_entities} live entities, "
            f"{session.num_pairs} candidate pairs\n"
            f"{online_text}"
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
            online=args.online,
            top_k=args.top_k,
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

    if args.snapshot_every is not None and args.snapshot_every < 1:
        parser.error("--snapshot-every must be at least 1")
    model = None
    if not args.recover:
        from .datasets.benchmarks import load_benchmark
        from .incremental.stream import StreamTrainingError, train_frozen_model

        if not 0.0 < args.bootstrap <= 1.0:
            parser.error("--bootstrap must be a fraction in (0, 1]")
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
            online=args.online,
            top_k=args.top_k,
            snapshot_every=args.snapshot_every,
            wal_sync=args.wal_sync,
            recover=args.recover,
            announce=True,
            degraded_reads=(args.degraded_reads == "on"),
            delta_shipping=(args.delta_shipping == "on"),
            heartbeat_interval=args.heartbeat_interval,
            hang_timeout=args.hang_timeout,
            max_pending_mutations=args.max_pending,
            max_pending_reads=args.max_pending,
            event_log=args.event_log,
            slow_request_ms=args.slow_ms,
            tracing=(args.tracing == "on"),
        )
    except (FileNotFoundError, ValueError) as error:
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

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--datasets",
            nargs="+",
            default=list(FAST_DATASET_SUBSET),
            choices=CLEAN_CLEAN_ORDER,
            help="Clean-Clean benchmark profiles to use",
        )
        sub.add_argument("--repetitions", type=int, default=1)
        sub.add_argument("--training-size", type=int, default=500, dest="training_size")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--max-set-size", type=int, default=3, dest="max_set_size")

    run_parser = subparsers.add_parser("run", help="regenerate one table/figure")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    add_common(run_parser)

    quickstart_parser = subparsers.add_parser("quickstart", help="run the quickstart pipeline")
    add_common(quickstart_parser)

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
        type=float,
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
        "--online",
        default="wep",
        choices=("wep", "topk"),
        help="per-insert online policy: running WEP average or top-K queue",
    )
    stream_parser.add_argument(
        "--top-k", type=int, default=1000, dest="top_k",
        help="retention budget for the 'topk' online policy",
    )
    stream_parser.add_argument(
        "--limit", type=int, default=None, help="cap the number of streamed inserts"
    )
    stream_parser.add_argument(
        "--deletes",
        type=float,
        default=0.0,
        help="churn fraction: probability, after each insert, of retracting "
        "one random live entity (exercises the dynamic index)",
    )
    stream_parser.add_argument(
        "--scale", type=float, default=None,
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
        type=int,
        default=None,
        dest="snapshot_every",
        metavar="N",
        help="write an automatic compacted checkpoint every N mutations "
        "while journaling (default: only the bootstrap snapshot)",
    )
    stream_parser.add_argument("--training-size", type=int, default=50, dest="training_size")
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
        "--port", type=int, default=0,
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
        "--bootstrap", type=float, default=0.5,
        help="fraction of the dataset used to train the frozen classifier",
    )
    serve_parser.add_argument(
        "--pruning", default="BLAST", choices=sorted(PRUNING_ALGORITHMS),
        help="batch pruning algorithm behind the 'match' endpoint",
    )
    serve_parser.add_argument(
        "--online", default="wep", choices=("wep", "topk"),
        help="per-insert online policy",
    )
    serve_parser.add_argument("--top-k", type=int, default=1000, dest="top_k")
    serve_parser.add_argument(
        "--snapshot-every", type=int, default=None, dest="snapshot_every",
        metavar="N", help="automatic checkpoint every N mutations",
    )
    serve_parser.add_argument(
        "--wal-sync", default="always", choices=("always", "batch"),
        dest="wal_sync", help="fsync per record (default) or on checkpoint only",
    )
    serve_parser.add_argument("--scale", type=float, default=None)
    serve_parser.add_argument("--training-size", type=int, default=50, dest="training_size")
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--degraded-reads", default="on", choices=("on", "off"),
        dest="degraded_reads",
        help="while a shard worker rebuilds: serve reads from the authority "
        "with degraded:true (on, default) or fail fast with 'unavailable' (off)",
    )
    serve_parser.add_argument(
        "--delta-shipping", default="on", choices=("on", "off"),
        dest="delta_shipping",
        help="ship only changed state on warm reads (on, default) or ship "
        "the full shard state on every read (off)",
    )
    serve_parser.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        dest="heartbeat_interval", metavar="SECONDS",
        help="supervisor heartbeat period for the shard workers",
    )
    serve_parser.add_argument(
        "--hang-timeout", type=float, default=5.0, dest="hang_timeout",
        metavar="SECONDS",
        help="missed-heartbeat / stuck-request window before a worker is "
        "declared wedged and respawned",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=256, dest="max_pending",
        metavar="N",
        help="bound on each dispatch queue; excess requests are shed with "
        "a typed 'overloaded' error",
    )
    serve_parser.add_argument(
        "--event-log", default=None, dest="event_log", metavar="DIR",
        help="write the structured JSON-lines event log (requests, WAL, "
        "supervision, faults) to DIR; defaults to $REPRO_EVENT_LOG; shard "
        "workers inherit the sink",
    )
    serve_parser.add_argument(
        "--tracing", default="on", choices=("on", "off"),
        help="record per-request span trees (asyncio loop, dispatch "
        "threads, WAL, shard fan-out) and attach them to request events",
    )
    serve_parser.add_argument(
        "--slow-ms", type=float, default=None, dest="slow_ms", metavar="MS",
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
    client_parser.add_argument("--port", type=int, required=True)
    client_parser.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request socket timeout in seconds",
    )
    client_parser.add_argument(
        "--connect-timeout", type=float, default=5.0, dest="connect_timeout",
        metavar="SECONDS",
        help="total budget for connecting (retries while the daemon's "
        "listener is still binding)",
    )
    client_parser.add_argument(
        "--retries", type=int, default=2,
        help="re-send budget for retryable failures (idempotent ops, "
        "'overloaded' sheds, unsent requests)",
    )
    client_parser.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
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
        "-k", type=int, default=10, help="result count for 'top-k'"
    )
    client_parser.add_argument(
        "--limit", type=int, default=20,
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
        for name in sorted(EXPERIMENTS):
            print(f"  {name}")
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
        print(EXPERIMENTS[args.experiment](args))
        return 0
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
