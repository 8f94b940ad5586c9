"""JSON persistence of experiment results and timelines."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    export_timeline,
    load_result,
    load_timeline_records,
    result_to_dict,
    save_result,
)
from repro.experiments.runner import run_experiment


@pytest.fixture(scope="module")
def result():
    config = ExperimentConfig(
        manager="custody", workload="pagerank", num_nodes=10,
        num_apps=2, jobs_per_app=2, seed=2, timeline_enabled=True,
    )
    return run_experiment(config)


def test_result_to_dict_is_json_serialisable(result):
    payload = result_to_dict(result)
    text = json.dumps(payload)
    assert "custody" in text


def test_round_trip(result, tmp_path):
    path = save_result(result, tmp_path / "result.json")
    loaded = load_result(path)
    assert loaded["config"] == result.config
    assert loaded["metrics"] == result.metrics
    assert loaded["sim_time"] == result.sim_time
    assert loaded["allocation_rounds"] == result.allocation_rounds


def test_round_trip_keeps_app_weights_a_tuple(tmp_path):
    config = ExperimentConfig(
        manager="custody", num_nodes=8, num_apps=2, jobs_per_app=1, seed=1,
        app_weights=(1.0, 2.0),
    )
    path = save_result(run_experiment(config), tmp_path / "weighted.json")
    loaded = load_result(path)["config"]
    assert loaded == config
    assert hash(loaded) == hash(config)


def test_version_check(result, tmp_path):
    path = save_result(result, tmp_path / "result.json")
    data = json.loads(path.read_text())
    data["format_version"] = 99
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError):
        load_result(path)


def _downgrade_to_v1(data):
    """Rewrite a v2 payload into the v1 shape: no nested section markers,
    no derived metric fields, no speculation counters or extra sections."""
    v1 = {
        "format_version": 1,
        "config": data["config"],
        "metrics": dict(data["metrics"]),
        "sim_time": data["sim_time"],
        "allocation_rounds": data["allocation_rounds"],
    }
    v1["metrics"].pop("format_version", None)
    v1["metrics"].pop("min_local_job_fraction", None)
    return v1


class TestBackwardCompat:
    def test_v1_snapshot_loads_through_v2_loader(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        v1 = _downgrade_to_v1(json.loads(path.read_text()))
        path.write_text(json.dumps(v1))
        loaded = load_result(path)
        assert loaded["config"] == result.config
        assert loaded["metrics"] == result.metrics
        assert loaded["sim_time"] == result.sim_time
        # v1 predates speculation counters: they migrate to zero.
        assert loaded["speculative_launches"] == 0
        assert loaded["speculative_wins"] == 0
        assert loaded["metrics_snapshot"] is None

    @pytest.mark.parametrize("version", [0, 3, "2", None])
    def test_unreadable_version_names_itself(self, result, tmp_path, version):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        if version is None:
            del data["format_version"]
        else:
            data["format_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(
            ConfigurationError,
            match=f"unsupported result format version {version!r}",
        ):
            load_result(path)

    def _with_config_keys(self, result, tmp_path, **extra):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        data["config"].update(extra)
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize(
        "retired",
        [
            {"perf_counters": True},
            {"perf_counters": False},
            {"alloc_coalesce": True},
            {"perf_counters": True, "alloc_coalesce": True},
        ],
    )
    def test_retired_config_keys_are_dropped(self, result, tmp_path, retired):
        """Results saved while these knobs existed still load."""
        path = self._with_config_keys(result, tmp_path, **retired)
        loaded = load_result(path)
        assert loaded["config"] == result.config
        assert loaded["metrics"] == result.metrics

    @pytest.mark.parametrize(
        "key, value", [("alloc_coalesce", False), ("warp_drive", 1)]
    )
    def test_unknown_config_key_names_itself(self, result, tmp_path, key, value):
        """A key the current code cannot honour is one clear error, not a
        constructor TypeError."""
        path = self._with_config_keys(result, tmp_path, **{key: value})
        with pytest.raises(ConfigurationError, match=key):
            load_result(path)

    def test_error_lists_readable_versions(self, result, tmp_path):
        path = save_result(result, tmp_path / "result.json")
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigurationError, match=r"\(1, 2\)"):
            load_result(path)


def test_timeline_export_round_trip(result, tmp_path):
    path = export_timeline(result.timeline, tmp_path / "timeline.jsonl")
    records = load_timeline_records(path)
    assert len(records) == len(result.timeline)
    assert records[0]["kind"] == result.timeline[0].kind
    kinds = {r["kind"] for r in records}
    assert "job.finish" in kinds


def test_timeline_lines_are_individual_json(result, tmp_path):
    path = export_timeline(result.timeline, tmp_path / "timeline.jsonl")
    with path.open() as fh:
        first = fh.readline()
    json.loads(first)  # every line parses standalone
