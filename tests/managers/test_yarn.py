"""YarnManager: demand-tracking pools without data awareness."""

from repro.managers.yarn import YarnManager


def make_manager(harness, num_apps=2):
    return YarnManager(harness.sim, harness.cluster, num_apps=num_apps)


def test_nothing_at_registration(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    assert driver.executor_count == 0


def test_grows_to_match_outstanding_tasks(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0, 1, 2]))
    harness.flush()
    assert driver.executor_count == 3  # 3 tasks, 1 slot each


def test_growth_capped_by_quota(harness):
    manager = make_manager(harness, num_apps=2)  # quota 4
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0, 1, 2, 3, 4, 5]))
    harness.flush()
    assert driver.executor_count == 4


def test_choice_is_data_unaware(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [6, 7]))
    harness.flush()
    # First-come executors, not the block holders.
    nodes = sorted(e.node_id for e in driver.executors)
    assert nodes == ["worker-000", "worker-001"]


def test_shrinks_when_jobs_finish(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [0, 1, 2])
    driver.submit_job(job)
    harness.sim.run()
    assert job.finished
    assert driver.executor_count == 0  # all reclaimed after the job


def test_jobs_complete_end_to_end(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    j0 = harness.make_job("a-0", [0, 1])
    j1 = harness.make_job("a-1", [2, 3])
    d0.submit_job(j0)
    d1.submit_job(j1)
    harness.sim.run()
    assert j0.finished and j1.finished


def test_underprovisioned_app_served_first(harness):
    manager = make_manager(harness, num_apps=2)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0]))
    harness.flush()
    # a-1 now submits a bigger job; resize must not strip a-0.
    d1.submit_job(harness.make_job("a-1", [1, 2, 3]))
    harness.flush()
    assert d0.executor_count >= 1
    assert d1.executor_count == 3
