"""The ``trace`` subcommand and the --trace/--json flags on run/compare."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.events import LAYERS
from repro.obs.export import validate_chrome_trace

pytestmark = pytest.mark.obs

FAST = ["--nodes", "10", "--apps", "2", "--jobs-per-app", "2", "--seed", "1"]


class TestParser:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.command == "trace"
        assert args.manager == "custody"
        assert args.out == "run.trace.json"
        assert args.faults == 0
        assert not args.smoke

    def test_json_flag_defaults_to_stdout(self):
        args = build_parser().parse_args(["run", "--json"])
        assert args.json_out == "-"
        args = build_parser().parse_args(["run", "--json", "out.json"])
        assert args.json_out == "out.json"


class TestTraceCommand:
    def test_smoke_gate_passes_and_validates(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert main(["trace", "--smoke", "--seed", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        cats = {e.get("cat") for e in data["traceEvents"] if e["ph"] != "M"}
        assert set(LAYERS) <= cats
        assert "trace smoke passed" in capsys.readouterr().out

    def test_fault_free_trace_with_summary_and_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        assert main(["trace", *FAST, "--out", str(out),
                     "--jsonl", str(jsonl), "--summary"]) == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        lines = [json.loads(x) for x in jsonl.read_text().splitlines()]
        assert lines and all("ts" in r and "name" in r for r in lines)
        assert "task-time breakdown" in capsys.readouterr().out


class TestRunFlags:
    def test_run_trace_export(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        assert main(["run", *FAST, "--trace", str(out)]) == 0
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["manager"] == "custody"

    def test_run_json_to_stdout(self, capsys):
        assert main(["run", *FAST, "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["config"]["manager"] == "custody"
        assert payload["metrics"]["finished_jobs"] > 0

    def test_compare_json_has_one_payload_per_manager(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        assert main(["compare", *FAST, "--managers", "standalone,custody",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert set(payload) == {"standalone", "custody"}
        for result in payload.values():
            assert "metrics" in result and "config" in result

    def test_compare_trace_writes_per_manager_files(self, tmp_path, capsys):
        out = tmp_path / "cmp.trace.json"
        assert main(["compare", *FAST, "--managers", "standalone,custody",
                     "--trace", str(out)]) == 0
        for manager in ("standalone", "custody"):
            path = tmp_path / f"cmp.trace.{manager}.json"
            assert path.exists()
            assert validate_chrome_trace(json.loads(path.read_text())) == []
