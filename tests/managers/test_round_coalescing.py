"""Round coalescing: N same-instant triggers cost one allocation round.

Every manager coalesces: the first trigger at an instant defers one round
via ``Simulation.defer`` and later same-instant triggers are absorbed,
counted in the registry's ``alloc_rounds_coalesced_total``.
"""

from repro.managers.custody import CustodyManager
from repro.managers.mesos import MesosManager
from repro.managers.standalone import StandaloneManager
from repro.managers.yarn import YarnManager
from repro.obs.metrics import MetricsRegistry


def total(registry, name):
    """Sum of a counter family across every manager label."""
    return sum(s["value"] for s in registry.get(name).series())


def test_coalesced_same_instant_submits_cost_one_round(harness):
    registry = MetricsRegistry()
    manager = CustodyManager(
        harness.sim, harness.cluster, num_apps=2, metrics=registry
    )
    driver = harness.add_app(manager, "a-0")
    for k in range(4):
        driver.submit_job(harness.make_job("a-0", [k]))
    # No round yet: one is deferred, three triggers were absorbed.
    assert manager.round_pending
    assert total(registry, "alloc_rounds_total") == 0
    assert total(registry, "alloc_rounds_coalesced_total") == 3
    harness.sim.step()  # flushes the deferred round at this instant
    assert not manager.round_pending
    assert total(registry, "alloc_rounds_total") == 1
    # The single coalesced round saw all four jobs' demands at once.
    assert {e.node_id for e in driver.executors} >= {
        "worker-000", "worker-001", "worker-002", "worker-003"
    }


def test_coalesced_round_reruns_at_later_instants(harness):
    registry = MetricsRegistry()
    manager = CustodyManager(
        harness.sim, harness.cluster, num_apps=2, metrics=registry
    )
    driver = harness.add_app(manager, "a-0")
    harness.sim.schedule_at(1.0, driver.submit_job, harness.make_job("a-0", [0]))
    harness.sim.schedule_at(2.0, driver.submit_job, harness.make_job("a-0", [1]))
    harness.sim.run()
    # Different instants coalesce nothing: one round each, plus any rounds
    # job completions trigger.
    assert total(registry, "alloc_rounds_coalesced_total") == 0
    assert total(registry, "alloc_rounds_total") >= 2


def test_all_managers_coalesce_rounds(harness):
    """Every policy defers its round and counts it through the base
    machinery."""
    import numpy as np

    registry = MetricsRegistry()
    managers = [
        CustodyManager(harness.sim, harness.cluster, num_apps=4,
                       metrics=registry),
        StandaloneManager(harness.sim, harness.cluster, num_apps=4,
                          rng=np.random.default_rng(0), metrics=registry),
        YarnManager(harness.sim, harness.cluster, num_apps=4,
                    metrics=registry),
        MesosManager(harness.sim, harness.cluster, num_apps=4,
                     metrics=registry),
    ]
    for manager in managers:
        assert manager.metrics is registry
        manager.on_executors_changed()
        assert manager.round_pending  # deferred, not run inline
    harness.sim.run()
    for manager in managers:
        assert not manager.round_pending
    assert total(registry, "alloc_rounds_total") == len(managers)
