"""Tests for the command-line interface."""

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
            ["stream", "--online", "topk", "--top-k", "0"],
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
