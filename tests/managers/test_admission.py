"""AdmissionController: overload deferral, shed accounting, recovery drain."""

import pytest

from repro.common.errors import ConfigurationError
from repro.managers.admission import AdmissionController
from repro.managers.base import ClusterManager


class RoundCountingManager(ClusterManager):
    """Manager whose allocation rounds just count themselves."""

    name = "counting"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = 0

    def on_job_submitted(self, driver, job):
        if not self.admit_job(driver, job):
            return  # overloaded: round deferred until capacity recovers
        self._schedule_round()

    def _allocation_round(self):
        self.rounds += 1


class FakeInjector:
    def __init__(self, down=(), unreachable=()):
        self.down = set(down)
        self.unreachable = set(unreachable)

    def node_down(self, node_id):
        return node_id in self.down

    def node_reachable(self, node_id):
        return node_id not in self.unreachable


class FakeDetector:
    def __init__(self, dead=(), suspected=()):
        self.dead = set(dead)
        self.suspected = set(suspected)

    def is_alive(self, node_id):
        return node_id not in self.dead

    def is_suspected(self, node_id):
        return node_id in self.suspected


def attach(harness, *, factor, retry_interval=5.0, num_apps=2):
    manager = RoundCountingManager(harness.sim, harness.cluster, num_apps=num_apps)
    controller = AdmissionController(
        harness.sim, factor=factor, retry_interval=retry_interval
    )
    manager.attach_admission(controller)
    return manager, controller


pytestmark = pytest.mark.robustness


class TestValidation:
    def test_factor_must_be_positive(self, harness):
        with pytest.raises(ConfigurationError):
            AdmissionController(harness.sim, factor=0.0)

    def test_retry_interval_must_be_positive(self, harness):
        with pytest.raises(ConfigurationError):
            AdmissionController(harness.sim, retry_interval=0.0)


class TestGate:
    def test_unattached_manager_admits_everything(self, harness):
        manager = RoundCountingManager(harness.sim, harness.cluster, num_apps=2)
        driver = harness.add_app(manager, "a-0")
        assert manager.admission is None
        driver.submit_job(harness.make_job("a-0", range(8)))
        harness.flush()
        assert manager.rounds == 1

    def test_under_threshold_admits_inline(self, harness):
        # 8 deliverable slots x factor 1.0: a 4-task job is within budget.
        manager, controller = attach(harness, factor=1.0)
        driver = harness.add_app(manager, "a-0")
        driver.submit_job(harness.make_job("a-0", range(4)))
        harness.flush()
        assert manager.rounds == 1
        assert controller.admission_deferred == 0
        assert controller.deferred_jobs == 0

    def test_overload_defers_the_round(self, harness):
        # 8 slots x factor 0.5 = budget 4; an 8-task job overruns it.
        manager, controller = attach(harness, factor=0.5)
        driver = harness.add_app(manager, "a-0")
        driver.submit_job(harness.make_job("a-0", range(8)))
        harness.flush()
        assert manager.rounds == 0  # no allocation thrash
        assert controller.admission_deferred == 1
        assert controller.deferred_jobs == 1
        # The job's tasks still count as demand — queued, not dropped.
        over, pending, capacity = controller.overloaded()
        assert (over, pending, capacity) == (True, 8, 8)

    def test_recovery_drains_into_one_round(self, harness):
        manager, controller = attach(harness, factor=0.5)
        d0 = harness.add_app(manager, "a-0")
        d1 = harness.add_app(manager, "a-1")
        d0.submit_job(harness.make_job("a-0", range(8)))
        d1.submit_job(harness.make_job("a-1", range(8)))
        assert controller.deferred_jobs == 2
        # Capacity recovery between checks (the controller re-measures
        # demand vs capacity at every retry tick).
        controller.factor = 10.0
        harness.sim.run(until=6.0)
        assert controller.deferred_jobs == 0
        assert controller.admitted_after_defer == 2
        assert controller.load_shed == 0
        assert manager.rounds == 1  # one coalesced round for the batch

    def test_sustained_overload_counts_shed(self, harness):
        manager, controller = attach(harness, factor=0.5, retry_interval=5.0)
        driver = harness.add_app(manager, "a-0")
        driver.submit_job(harness.make_job("a-0", range(8)))
        harness.sim.run(until=11.0)  # retry ticks at t=5 and t=10
        assert controller.load_shed == 2
        assert controller.deferred_jobs == 1  # still queued, never dropped
        controller.factor = 10.0
        harness.sim.run(until=16.0)
        assert controller.deferred_jobs == 0
        assert controller.admitted_after_defer == 1

    def test_retry_timer_quiesces_after_drain(self, harness):
        # The timer is armed only while deferrals are outstanding: once the
        # batch drains the simulation runs dry (no perpetual ticking).
        manager, controller = attach(harness, factor=0.5)
        driver = harness.add_app(manager, "a-0")
        driver.submit_job(harness.make_job("a-0", range(8)))
        controller.factor = 10.0
        harness.sim.run(until=100.0)
        assert harness.sim.pending_events == 0  # no perpetual re-arm
        assert controller.load_shed == 0


class TestDeliverableCapacity:
    def test_ground_truth_without_injector(self, harness):
        manager, controller = attach(harness, factor=1.0)
        harness.add_app(manager, "a-0")
        assert controller.demand_and_capacity() == (0, 8)

    def test_detector_excludes_dead_and_suspected(self, harness):
        manager, controller = attach(harness, factor=1.0)
        harness.add_app(manager, "a-0")
        manager.fault_injector = FakeInjector()
        manager.detector = FakeDetector(
            dead={"worker-000"}, suspected={"worker-001"}
        )
        assert controller.demand_and_capacity() == (0, 6)

    def test_injector_only_excludes_unreachable(self, harness):
        manager, controller = attach(harness, factor=1.0)
        harness.add_app(manager, "a-0")
        manager.fault_injector = FakeInjector(
            unreachable={"worker-000", "worker-001", "worker-002"}
        )
        assert controller.demand_and_capacity() == (0, 5)
