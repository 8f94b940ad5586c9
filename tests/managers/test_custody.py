"""CustodyManager: postponed, data-aware, demand-driven allocation."""

import pytest

from repro.managers.custody import CustodyManager


def make_manager(harness, num_apps=2, **kw):
    return CustodyManager(
        harness.sim, harness.cluster, num_apps=num_apps, validate=True, **kw
    )


def test_nothing_allocated_at_registration(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    assert driver.executor_count == 0


def test_job_submission_triggers_data_aware_grant(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [2, 5])  # blocks pinned to workers 2 and 5
    driver.submit_job(job)
    harness.flush()
    nodes = {e.node_id for e in driver.executors}
    assert nodes == {"worker-002", "worker-005"}
    harness.sim.run()
    assert job.is_local_job is True


def test_perfect_locality_for_disjoint_apps(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    j0 = harness.make_job("a-0", [0, 1])
    j1 = harness.make_job("a-1", [4, 5])
    d0.submit_job(j0)
    d1.submit_job(j1)
    harness.sim.run()
    assert j0.is_local_job is True
    assert j1.is_local_job is True


def test_repeated_contention_is_maxmin_fair_over_time(harness):
    """Fig. 3 dynamics: both apps repeatedly demand the same hot blocks.

    The hot executors are handed back at job boundaries and MINLOCALITY
    steers them to the less-localized application, so with a locality wait
    long enough to survive one job's service time both applications end up
    with perfect job locality instead of one starving.
    """
    harness.delay_wait = 1.0  # outlive the 0.5 s blocking task
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    for k in range(6):
        harness.sim.schedule_at(
            k * 2.0, d0.submit_job, harness.make_job("a-0", [k % 2])
        )
        harness.sim.schedule_at(
            k * 2.0 + 0.01, d1.submit_job, harness.make_job("a-1", [k % 2])
        )
    harness.sim.run()
    assert d0.app.local_job_fraction == pytest.approx(1.0)
    assert d1.app.local_job_fraction == pytest.approx(1.0)


def test_quota_enforced(harness):
    manager = make_manager(harness, num_apps=2)  # quota = 4
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [0, 1, 2, 3, 4, 5])
    driver.submit_job(job)
    harness.flush()
    assert 0 < driver.executor_count <= 4


def test_idle_undesired_executors_released_on_next_round(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    j1 = harness.make_job("a-0", [0, 1])
    driver.submit_job(j1)
    harness.sim.run()
    held_after_j1 = {e.node_id for e in driver.executors}
    # New job wants totally different blocks: Custody swaps executors.
    j2 = harness.make_job("a-0", [6, 7])
    driver.submit_job(j2)
    harness.flush()
    held_for_j2 = {e.node_id for e in driver.executors}
    assert held_for_j2 == {"worker-006", "worker-007"}
    assert held_after_j1 != held_for_j2
    harness.sim.run()
    assert j2.is_local_job is True


def test_job_finish_triggers_reallocation(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    rounds0 = manager.allocation_rounds
    driver.submit_job(harness.make_job("a-0", [0]))
    harness.sim.run()
    # At least two rounds: one on submit, one on finish.
    assert manager.allocation_rounds >= rounds0 + 2


def test_historical_starvation_prioritised(harness):
    """An app whose decided jobs were non-local wins the next hot executor."""
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    # a-0 runs a job forced remote (no replica overlap with granted set is
    # impossible here, so emulate history by running a job and then marking
    # its tasks non-local).
    j_hist = harness.make_job("a-0", [3])
    d0.submit_job(j_hist)
    harness.sim.run()
    for t in j_hist.input_tasks:
        t.was_local = False  # rewrite history: a-0 was starved
    # Both apps now submit single-task jobs wanting block 0.
    ja = harness.make_job("a-0", [0])
    jb = harness.make_job("a-1", [0])
    d1.submit_job(jb)  # b asks first
    d0.submit_job(ja)  # reallocation on a's submit sees both demands
    # a-0 (0% local history) must be ranked below a-1 by MINLOCALITY; since
    # worker-000 has one executor, whoever holds it wins — check via keys.
    assert d0.app.locality_key() < d1.app.locality_key()


def test_fill_disabled_grants_only_locality(harness):
    manager = make_manager(harness, fill=False)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [0])
    driver.submit_job(job)
    harness.flush()
    assert driver.executor_count == 1  # no filler executors


def test_custody_plan_records(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0, 1]))
    harness.flush()
    assert manager.last_plan is not None
    assert manager.last_plan.total_granted >= 2
