"""MetricsCollector edge cases: unfinished work, empty runs, odd workloads."""

import pytest

from repro.hdfs.blocks import Block
from repro.metrics.collector import MetricsCollector
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind


def make_job(job_id, app_id, *, finished=True, workload="wc", n_tasks=2):
    tasks = []
    for i in range(n_tasks):
        t = Task(
            f"{job_id}-t{i}", job_id=job_id, app_id=app_id, stage_index=0,
            kind=TaskKind.INPUT, cpu_time=1.0,
            block=Block(f"{job_id}-b{i}", path="/f", index=i, size=1.0),
        )
        t.submitted_at, t.started_at = 0.0, 1.0
        if finished:
            t.finished_at, t.was_local = 5.0, True
        tasks.append(t)
    job = Job(job_id, app_id, [Stage(0, tasks)], workload=workload)
    job.submitted_at = 0.0
    if finished:
        job.finished_at = 10.0
    return job


def test_unfinished_jobs_excluded_from_every_aggregate():
    app = Application("a-0")
    app.add_job(make_job("done", "a-0"))
    app.add_job(make_job("stuck", "a-0", finished=False))
    m = MetricsCollector().collect([app])
    assert m.finished_jobs == 1
    assert m.unfinished_jobs == 1
    assert m.avg_jct == pytest.approx(10.0)
    assert m.makespan == pytest.approx(10.0)
    # the stuck job contributes nothing to locality or workload tables
    assert m.per_workload_jct == {"wc": pytest.approx(10.0)}


def test_zero_finished_jobs_yields_safe_defaults():
    app = Application("a-0")
    app.add_job(make_job("stuck", "a-0", finished=False))
    m = MetricsCollector().collect([app])
    assert m.finished_jobs == 0
    assert m.unfinished_jobs == 1
    assert m.avg_jct is None
    assert m.makespan is None
    assert m.locality_mean == 0.0
    assert m.per_workload_jct == {}


def test_missing_workload_lands_in_unknown_bucket():
    app = Application("a-0")
    app.add_job(make_job("j1", "a-0", workload=None))
    m = MetricsCollector().collect([app])
    assert "unknown" in m.per_workload_jct
    assert m.per_workload_jct["unknown"] == pytest.approx(10.0)
    assert m.per_workload_locality["unknown"] == pytest.approx(1.0)


def test_no_apps_at_all():
    m = MetricsCollector().collect([])
    assert m.finished_jobs == 0
    assert m.local_job_fraction_per_app == ()
    assert m.min_local_job_fraction == 0.0
    assert m.fairness_index == 1.0


def test_metrics_as_dict_round_trips_to_json_types():
    app = Application("a-0")
    app.add_job(make_job("j1", "a-0"))
    d = MetricsCollector().collect([app]).as_dict()
    assert d["finished_jobs"] == 1
    assert isinstance(d["local_job_fraction_per_app"], list)
    assert d["min_local_job_fraction"] == d["local_job_fraction_per_app"][0]
    assert isinstance(d["per_workload_jct"], dict)

