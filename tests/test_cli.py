"""Tests for the command-line interface."""

import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from repro import __version__
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("table2", "fig5", "table5", "fig17-18"):
            assert name in output

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command,flag",
        [
            (["run", "table2"], "--backend"),
            (["quickstart"], "--backend"),
            (["stream"], "--backend"),
            (["serve", "--wal", "unused"], "--backend"),
            (["run", "table2"], "--blocking-backend"),
            (["quickstart"], "--blocking-backend"),
            (["run", "table2"], "--workers"),
            (["quickstart"], "--workers"),
            (["serve", "--wal", "unused"], "--workers"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_implementation_selectors_are_gone(self, capsys, command, flag):
        """Every place an earlier version accepted a selector or worker-count
        flag rejects it."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + [flag, "loop"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} loop" in capsys.readouterr().err

    def test_run_requires_known_experiment(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "bogus-experiment"])

    def test_dataset_choices_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "table2", "--datasets", "NotADataset"])

    def test_every_registered_experiment_has_a_handler(self):
        for name, handler in EXPERIMENTS.items():
            assert callable(handler), name


class TestServeOptions:
    def test_shards_default_and_explicit(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--wal", "unused"]).shards == 2
        assert parser.parse_args(["serve", "--wal", "unused", "--shards", "4"]).shards == 4

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_argparse_refuses_a_shard_count_below_one(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--wal", "unused", "--shards", value])
        assert excinfo.value.code == 2
        assert f"argument --shards: must be at least 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--shards", "0"), ("--shards", "-3"), ("--shards", "many"), ("--snapshot-every", "0")],
    )
    def test_rejects_invalid(self, tmp_path, capsys, flag, value):
        """A bad count is an argparse error before any model is trained."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--wal", str(tmp_path / "wal"), flag, value])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert flag in error
        assert "Traceback" not in error
        assert not (tmp_path / "wal").exists()

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--heartbeat-interval", "0", "must be above 0"),
            ("--heartbeat-interval", "-0.5", "must be above 0"),
            ("--hang-timeout", "0", "must be above 0"),
            ("--max-pending", "0", "must be at least 1"),
            ("--slow-ms", "-1", "must be at least 0"),
        ],
    )
    def test_refuses_timing_and_queue_values_that_break_the_daemon(
        self, tmp_path, capsys, flag, value, message
    ):
        """A zero heartbeat spins the supervisor, a zero hang timeout respawns
        every worker, a zero queue bound sheds every request and a negative
        slow threshold marks every request slow: each is an argparse error
        before any model is trained."""
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--wal", str(tmp_path / "wal"), flag, value])
        assert excinfo.value.code == 2
        assert f"argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "wal").exists()

    def test_the_smallest_legal_timing_and_queue_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--wal", "unused", "--max-pending", "1", "--slow-ms", "0",
             "--heartbeat-interval", "0.01", "--hang-timeout", "0.01"]
        )
        assert (args.max_pending, args.slow_ms) == (1, 0.0)
        assert (args.heartbeat_interval, args.hang_timeout) == (0.01, 0.01)


class TestOutOfRangeValues:
    @pytest.mark.parametrize(
        "argv,flag,message",
        [
            (["serve", "--scale", "0"], "--scale", "must be above 0"),
            (["serve", "--scale", "-0.5"], "--scale", "must be above 0"),
            (["serve", "--port", "70000"], "--port", "must be a port in 0-65535"),
            (["serve", "--port", "-1"], "--port", "must be a port in 0-65535"),
            (["stream", "--scale", "0"], "--scale", "must be above 0"),
            (["stream", "--limit", "-1"], "--limit", "must be at least 0"),
            (["client", "stats", "--port", "70000"], "--port", "must be a port in 0-65535"),
            (["client", "stats", "--port", "1", "--timeout", "-1"], "--timeout", "must be above 0"),
            (["client", "stats", "--port", "1", "--timeout", "0"], "--timeout", "must be above 0"),
            (["client", "stats", "--port", "1", "--retries", "-1"], "--retries", "must be at least 0"),
            (
                ["client", "stats", "--port", "1", "--connect-timeout", "-1"],
                "--connect-timeout",
                "must be at least 0",
            ),
            (["client", "stats", "--port", "1", "--deadline-ms", "-1"], "--deadline-ms", "must be above 0"),
            (["client", "stats", "--port", "1", "--deadline-ms", "0"], "--deadline-ms", "must be above 0"),
            (["client", "stats", "--port", "1", "--deadline-ms", "inf"], "--deadline-ms", "must be above 0 and finite"),
            (["client", "stats", "--port", "1", "--timeout", "inf"], "--timeout", "must be above 0 and finite"),
            (["client", "top-k", "--port", "1", "--id", "a", "-k", "-3"], "-k", "must be at least 0"),
            (["client", "match", "--port", "1", "--limit", "-1"], "--limit", "must be at least 0"),
            (["serve", "--snapshot-every", "0"], "--snapshot-every", "must be at least 1"),
            (["serve", "--snapshot-every", "-3"], "--snapshot-every", "must be at least 1"),
            (["stream", "--snapshot-every", "0"], "--snapshot-every", "must be at least 1"),
            (["stream", "--snapshot-every", "-3"], "--snapshot-every", "must be at least 1"),
        ],
    )
    def test_refuses_values_that_end_in_a_traceback_or_do_nothing(
        self, tmp_path, capsys, argv, flag, message
    ):
        """Each is an argparse error naming its flag, before any model is
        trained, any log is written or any connection is tried."""
        if argv[0] == "serve":
            argv = ["serve", "--wal", str(tmp_path / "wal"), *argv[1:]]
        elif argv[0] == "stream":
            argv = [*argv, "--wal", str(tmp_path / "wal")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"argument {flag}: {message}" in error
        assert "Traceback" not in error
        assert not (tmp_path / "wal").exists()

    def test_the_range_ends_parse(self):
        parser = build_parser()
        assert parser.parse_args(["serve", "--wal", "unused", "--port", "0"]).port == 0
        assert parser.parse_args(["serve", "--wal", "unused", "--port", "65535"]).port == 65535
        assert parser.parse_args(["stream", "--limit", "0"]).limit == 0
        assert parser.parse_args(["stream", "--scale", "0.01"]).scale == 0.01
        assert parser.parse_args(["stream", "--snapshot-every", "1"]).snapshot_every == 1
        assert parser.parse_args(["serve", "--wal", "unused", "--snapshot-every", "1"]).snapshot_every == 1
        client = parser.parse_args(["client", "ping", "--port", "65535", "--timeout", "0.5"])
        assert (client.port, client.timeout) == (65535, 0.5)
        client = parser.parse_args(
            ["client", "match", "--port", "1", "--connect-timeout", "0", "--retries", "0",
             "-k", "0", "--limit", "0", "--deadline-ms", "0.5"]
        )
        assert (client.connect_timeout, client.retries, client.k, client.limit) == (0, 0, 0, 0)
        assert client.deadline_ms == 0.5

    @pytest.mark.parametrize(
        "argument,value",
        [
            ("retries", -1),
            ("connect_timeout", -0.5),
            ("connect_timeout", float("nan")),
            ("deadline_ms", 0),
            ("deadline_ms", -1),
            ("deadline_ms", float("inf")),
            ("deadline_ms", float("nan")),
        ],
    )
    def test_the_client_refuses_them_before_connecting(self, monkeypatch, argument, value):
        from repro.serve.client import ServeClient

        def connect(*args, **kwargs):
            raise AssertionError("a connection was tried")

        monkeypatch.setattr(socket, "create_connection", connect)
        with pytest.raises(ValueError, match=argument):
            ServeClient(port=1, **{argument: value})


def _files(directory: Path):
    """Every file under ``directory`` with its bytes; ``None`` when absent."""
    if not directory.exists():
        return None
    return {
        path.relative_to(directory): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def _serve_until_announced(argv):
    """``repro serve`` in a child process: its banner once it serves, and its
    exit code after a SIGTERM (graceful: drain, checkpoint, exit 0)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_EVENT_LOG", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        banner = process.stdout.readline()
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        returncode = process.wait(120)
        stderr = process.stderr.read()
        process.stdout.close()
        process.stderr.close()
    assert banner, f"repro serve exited {returncode} before serving: {stderr[-2000:]}"
    return json.loads(banner), returncode


class TestServeStart:
    """A ``repro serve`` that cannot listen changes nothing in its --wal."""

    @pytest.fixture()
    def held_port(self):
        with socket.create_server(("127.0.0.1", 0)) as held:
            yield str(held.getsockname()[1])

    def _refused(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", *argv])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "repro: error: cannot start the daemon: " in error
        assert "Traceback" not in error

    def test_a_fresh_start_on_a_held_port_writes_nothing(self, tmp_path, capsys, held_port):
        wal = tmp_path / "wal"
        model = ["--scale", "0.03", "--training-size", "20"]
        self._refused(capsys, ["--wal", str(wal), "--port", held_port, *model])
        assert _files(wal) is None
        banner, returncode = _serve_until_announced(["--wal", str(wal), "--port", "0", *model])
        assert banner["event"] == "serving" and banner["port"] > 0
        assert returncode == 0

    def test_a_recovery_on_a_held_port_leaves_the_directory_byte_identical(
        self, tmp_path, capsys, held_port
    ):
        wal = tmp_path / "wal"
        _serve_until_announced(
            ["--wal", str(wal), "--port", "0", "--scale", "0.03", "--training-size", "20"]
        )
        # a torn tail: recovery would truncate it and write a floor checkpoint
        with (wal / "wal.log").open("ab") as log:
            log.write(b"\x00\x01torn")
        before = _files(wal)
        self._refused(capsys, ["--wal", str(wal), "--recover", "--port", held_port])
        assert _files(wal) == before
        banner, returncode = _serve_until_announced(
            ["--wal", str(wal), "--recover", "--port", "0"]
        )
        assert banner["event"] == "serving" and banner["port"] > 0
        assert returncode == 0


class TestExecution:
    def test_run_table2(self, capsys):
        exit_code = main(["run", "table2", "--datasets", "AbtBuy", "--seed", "0"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "AbtBuy" in output
        assert "recall" in output

    def test_run_fig6_small(self, capsys):
        exit_code = main(
            [
                "run",
                "fig6",
                "--datasets",
                "AbtBuy",
                "--repetitions",
                "1",
                "--training-size",
                "50",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "RCNP" in output and "CEP" in output

    def test_quickstart(self, capsys):
        exit_code = main(
            ["quickstart", "--datasets", "DblpAcm", "--training-size", "50", "--seed", "1"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "before meta-blocking" in output
        assert "after  meta-blocking" in output


class TestStream:
    def test_stream_runs_end_to_end(self, capsys):
        exit_code = main(
            ["stream", "--dataset", "DblpAcm", "--scale", "0.1", "--limit", "200"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "per-insert latency" in output
        assert "pairs retained" in output

    def test_stream_handles_sources_sharing_id_values(self, tmp_path, capsys):
        """Both CSV sources numbering entities 0..N is a supported layout."""
        # tokens shared by two records per side: the purged and filtered
        # bootstrap still pairs non-matches, so both classes are there to train
        rows = "".join(f"{n},item {n} common token tag{n // 2}\n" for n in range(6))
        (tmp_path / "first.csv").write_text("id,name\n" + rows)
        (tmp_path / "second.csv").write_text("id,name\n" + rows)
        (tmp_path / "ground_truth.csv").write_text(
            "first_id,second_id\n" + "".join(f"{n},{n}\n" for n in range(6))
        )
        exit_code = main(["stream", "--dataset-dir", str(tmp_path), "--bootstrap", "1.0"])
        assert exit_code == 0
        assert "pairs retained" in capsys.readouterr().out

    def test_stream_with_deletes_reports_churn_and_live_recall(self, capsys):
        exit_code = main(
            ["stream", "--dataset", "DblpAcm", "--scale", "0.1", "--deletes", "0.4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "deletes:" in output
        assert "entities retracted" in output
        assert "pairs retained" in output
        # recall is judged against the live index state, so heavy churn must
        # not drag it down by counting retracted duplicates as misses
        recall = float(output.rsplit("recall=", 1)[1].split()[0])
        assert 0.0 <= recall <= 1.0

    def test_stream_invalid_options_give_argparse_errors(self, capsys):
        for argv in (
            ["stream", "--bootstrap", "1.5"],
            ["stream", "--deletes", "1.5"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_stream_without_ground_truth_gives_argparse_error(self, tmp_path, capsys):
        (tmp_path / "first.csv").write_text("id,name\n1,apple iphone\n2,samsung s20\n")
        (tmp_path / "second.csv").write_text("id,name\n10,iphone apple\n11,galaxy s20\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--dataset-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "no ground truth" in error
        assert "Traceback" not in error

    def test_stream_with_useless_bootstrap_gives_argparse_error(self, tmp_path, capsys):
        rows_first = "".join(f"{n},product {n} widget\n" for n in range(10))
        rows_second = "".join(f"{n + 100},gadget {n} widget\n" for n in range(10))
        (tmp_path / "first.csv").write_text("id,name\n" + rows_first)
        (tmp_path / "second.csv").write_text("id,name\n" + rows_second)
        # the only duplicate involves the LAST entities, outside the bootstrap
        (tmp_path / "ground_truth.csv").write_text("first_id,second_id\n9,109\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["stream", "--dataset-dir", str(tmp_path), "--bootstrap", "0.2"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "no ground-truth duplicate" in error
        assert "Traceback" not in error
