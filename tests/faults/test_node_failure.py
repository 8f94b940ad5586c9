"""NodeFailure end to end: crash, stale views, modeled recovery traffic."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.faults.plan import FaultPlan, NodeFailure

pytestmark = pytest.mark.faults

BASE = dict(
    manager="custody", workload="sort", num_nodes=12, num_apps=2,
    jobs_per_app=3, seed=6, timeline_enabled=True, metrics=True,
)


def run_with(plan, **overrides):
    return run_experiment(
        ExperimentConfig(**{**BASE, **overrides}), fault_plan=plan
    )


def flow_events(result):
    """Transfer lifecycle events of every kind, from the run's registry."""
    family = result.registry.get("net_transfers_total")
    return sum(s["value"] for s in family.series())


class TestNodeFailure:
    def test_jobs_finish_and_blocks_recovered(self):
        plan = FaultPlan(
            [NodeFailure(at=5.0, node_id="worker-000", restart_delay=40.0)]
        )
        result = run_with(plan)
        faults = result.faults
        assert result.metrics.unfinished_jobs == 0
        assert faults.replicas_lost > 0
        # Recovery ran as real transfers through the fabric.
        assert faults.recovery_flows > 0
        assert faults.recovery_bytes > 0
        assert faults.replicas_restored > 0
        kinds = {r.kind for r in result.timeline}
        assert "fault.node" in kinds
        assert "fault.node.restore" in kinds
        assert "fault.re_replicate" in kinds
        assert faults.mttr["node"] == pytest.approx(40.0)

    def test_recovery_traffic_contends_in_perf_counters(self):
        plan = FaultPlan(
            [NodeFailure(at=5.0, node_id="worker-000", restart_delay=40.0)]
        )
        baseline = flow_events(run_with(None))
        faulted = run_with(plan)
        # Recovery copies are extra flow events through the shared fabric.
        assert flow_events(faulted) > baseline
        assert flow_events(faulted) >= baseline + faulted.faults.recovery_flows

    def test_double_failure_of_same_node_is_idempotent(self):
        plan = FaultPlan(
            [
                NodeFailure(at=5.0, node_id="worker-000", restart_delay=60.0),
                NodeFailure(at=10.0, node_id="worker-000", restart_delay=60.0),
            ]
        )
        result = run_with(plan)
        assert result.metrics.unfinished_jobs == 0
        # The second event is a no-op; only one restore fires.
        restores = [
            r for r in result.timeline.of_kind("fault.node.restore")
        ]
        assert len(restores) == 1

    def test_executors_unhealthy_while_down_and_restored_after(self):
        plan = FaultPlan(
            [NodeFailure(at=1.0, node_id="worker-003", restart_delay=20.0)]
        )
        result = run_with(plan)
        injector = result.fault_injector
        assert not injector.node_down("worker-003")  # restored by run end
        for executor in result.manager.cluster.executors_on("worker-003"):
            assert executor.healthy


class TestStaleViews:
    def test_ground_truth_view_never_grants_dead_nodes(self):
        plan = FaultPlan(
            [NodeFailure(at=3.0, node_id="worker-001", restart_delay=30.0)]
        )
        result = run_with(plan)  # no detector: managers see ground truth
        assert result.faults.failed_launches == 0

    def test_detector_delay_allows_grants_on_dead_nodes(self):
        plan = FaultPlan(
            [NodeFailure(at=3.0, node_id="worker-001", restart_delay=30.0)]
        )
        result = run_with(plan, detector_timeout=12.0, heartbeat_interval=3.0)
        # The run completes either way; failed launches feed the detector.
        assert result.metrics.unfinished_jobs == 0
        assert result.faults.detector_reports == result.faults.failed_launches
