"""CLI: argument parsing and command execution."""

import json

import pytest

from repro.cli import build_parser, main

FAST = ["--nodes", "10", "--apps", "2", "--jobs-per-app", "2", "--seed", "1"]


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.manager == "custody"
        assert args.workload == "wordcount"

    def test_bad_manager_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--manager", "k8s"])

    def test_figures_requires_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "--manager", "standalone", *FAST]) == 0
        out = capsys.readouterr().out
        assert "standalone" in out
        assert "allocation rounds" in out

    def test_run_with_save(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["run", *FAST, "--save", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["config"]["manager"] == "custody"

    def test_run_with_utilization(self, capsys):
        assert main(["run", *FAST, "--utilization"]) == 0
        assert "slot utilization" in capsys.readouterr().out

    def test_run_with_features(self, capsys):
        assert main(
            ["run", *FAST, "--speculation", "--kmn", "0.9", "--cache-gb", "1"]
        ) == 0

    def test_compare(self, capsys):
        assert main(["compare", "--managers", "standalone,custody", *FAST]) == 0
        out = capsys.readouterr().out
        assert "standalone" in out and "custody" in out

    def test_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "Fig. 5" in out

    def test_figures_9(self, capsys):
        assert main(["figures", "--figure", "9", "--jobs-per-app", "2", "--apps", "2"]) == 0
        assert "Fig. 9" in capsys.readouterr().out


class TestInvalidInput:
    """Bad values are one ``error:`` line on stderr and exit code 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--delay-wait", "-1"],
            ["run", "--apps", "0"],
            ["run", "--replication", "5", "--nodes", "3"],
            *(
                ["sweep", "--grid", cell, "--nodes", "8", "--apps", "2",
                 "--jobs-per-app", "2"]
                for cell in ("block_size=0", "pool_size=0", "pool_size=-1")
            ),
            ["sweep", "--manager", "mesos", "--grid", "mesos_offer_interval=0",
             "--nodes", "8", "--apps", "2", "--jobs-per-app", "2"],
        ],
    )
    def test_one_line_error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
