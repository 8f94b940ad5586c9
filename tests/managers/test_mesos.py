"""MesosManager: offer/accept with delay-scheduling rejections."""

import pytest

from repro.common.errors import ConfigurationError
from repro.managers.mesos import MesosManager


def make_manager(harness, num_apps=2, offer_interval=1.0):
    return MesosManager(
        harness.sim, harness.cluster, num_apps=num_apps, offer_interval=offer_interval
    )


def test_invalid_offer_interval():
    import numpy as np

    from tests.managers.conftest import ManagerHarness

    h = ManagerHarness()
    with pytest.raises(ConfigurationError):
        MesosManager(h.sim, h.cluster, num_apps=2, offer_interval=0.0)


def test_local_offer_accepted_immediately(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0]))
    harness.flush()
    # The executor on worker-000 must be among those accepted.
    assert "worker-000" in {e.node_id for e in driver.executors}


def test_nonlocal_offers_rejected_then_accepted_after_wait(harness):
    manager = make_manager(harness, offer_interval=0.5)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [0])
    # Occupy worker-000's executor with another app so the offer is never local.
    other = harness.add_app(manager, "a-zzz")
    blocker = harness.cluster.executors[0]
    blocker.allocate("a-zzz")
    other.attach_executor(blocker)
    driver.submit_job(job)
    harness.flush()
    assert manager.offers_rejected > 0  # everyone declined the non-local offers
    harness.sim.run()
    assert job.finished
    assert job.input_tasks[0].was_local is False  # had to settle


def test_executors_released_when_queue_drains(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [0, 1])
    driver.submit_job(job)
    harness.sim.run()
    assert job.finished
    assert driver.executor_count == 0  # fine-grained: returned to the pool


def test_quota_caps_acceptance(harness):
    manager = make_manager(harness, num_apps=2)  # quota 4
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0, 1, 2, 3, 4, 5]))
    harness.flush()
    assert 0 < driver.executor_count <= 4


def test_offer_counters_accumulate(harness):
    manager = make_manager(harness)
    driver = harness.add_app(manager, "a-0")
    driver.submit_job(harness.make_job("a-0", [0]))
    harness.sim.run()
    assert manager.offers_made > 0


def test_two_apps_share_via_offers(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    j0 = harness.make_job("a-0", [0, 1])
    j1 = harness.make_job("a-1", [2, 3])
    d0.submit_job(j0)
    d1.submit_job(j1)
    harness.sim.run()
    assert j0.finished and j1.finished
    assert j0.is_local_job and j1.is_local_job  # offers found the local homes


def test_retry_timer_eventually_places_unwanted_executor(harness):
    # A job whose block-9 demand can never be local (only 8 workers exist,
    # block indices wrap), so use a block on a worker whose executor is
    # owned: the task must eventually accept a non-local offer via retry.
    manager = make_manager(harness, offer_interval=0.25)
    other = harness.add_app(manager, "a-other")
    blocker = harness.cluster.executors[3]
    blocker.allocate("a-other")
    other.attach_executor(blocker)
    driver = harness.add_app(manager, "a-0")
    job = harness.make_job("a-0", [3])
    driver.submit_job(job)
    harness.sim.run()
    assert job.finished
