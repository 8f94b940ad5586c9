"""The incremental Custody control plane: cache behaviour and equivalence.

The demand cache may only change *when* work happens, never *what* is
decided: every scenario here runs once per engine and asserts identical
plan streams, grants and locality outcomes, then pins the cache hit/miss
accounting and its three invalidation triggers (demand epoch, NameNode
version, watched-node pool changes) — also under fault injection, where
the pool moves with the master's beliefs.
"""

import pytest

from repro.managers.custody import CustodyManager


def make_manager(harness, num_apps=2, **kw):
    return CustodyManager(
        harness.sim, harness.cluster, num_apps=num_apps, validate=True, **kw
    )


def record_plans(manager):
    """Shadow ``reallocate`` with a signature-recording wrapper."""
    signatures = []
    original = manager.reallocate

    def recording():
        plan = original()
        signatures.append(plan.signature())
        return plan

    manager.reallocate = recording
    return signatures


def run_churn_scenario(harness_cls, engine):
    """A contended two-app workload; returns its observable decision trail."""
    harness = harness_cls()
    manager = make_manager(harness, alloc_engine=engine)
    signatures = record_plans(manager)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    jobs = []
    for k in range(5):
        for driver, blocks in ((d0, [k % 4, (k + 1) % 4]), (d1, [(k + 2) % 8, 5])):
            job = harness.make_job(driver.app_id, blocks)
            jobs.append(job)
            harness.sim.schedule_at(k * 1.5, driver.submit_job, job)
    harness.sim.run()
    return {
        "signatures": signatures,
        "rounds": manager.allocation_rounds,
        "localities": [j.is_local_job for j in jobs],
        "owners": sorted(
            (e.executor_id, e.owner) for e in harness.cluster.executors
        ),
    }


def test_engines_identical_under_churn(harness):
    """Reference and incremental runs take identical decisions throughout."""
    harness_cls = type(harness)
    assert run_churn_scenario(harness_cls, "reference") == run_churn_scenario(
        harness_cls, "incremental"
    )


def test_steady_state_rounds_hit_the_cache(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0, 1]))
    d1.submit_job(harness.make_job("a-1", [4, 5]))
    harness.sim.run()
    manager.reallocate()  # settle any post-run releases
    manager.reallocate()  # rebuild entries for the settled state
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    plan = manager.reallocate()  # nothing changed: every demand is a hit
    assert manager.demand_cache_hits == hits + 2
    assert manager.demand_cache_misses == misses
    assert not plan.grants


def test_job_submission_dirties_only_its_app(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0]))
    d1.submit_job(harness.make_job("a-1", [5]))
    harness.sim.run()
    manager.reallocate()
    manager.reallocate()
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    d0.submit_job(harness.make_job("a-0", [2]))  # triggers one round
    harness.flush()
    # a-0's epoch moved (rebuild); a-1 is untouched (cache hit).
    assert manager.demand_cache_misses == misses + 1
    assert manager.demand_cache_hits == hits + 1


def test_namenode_mutation_invalidates_every_entry(harness):
    manager = make_manager(harness)
    d0 = harness.add_app(manager, "a-0")
    d1 = harness.add_app(manager, "a-1")
    d0.submit_job(harness.make_job("a-0", [0]))
    d1.submit_job(harness.make_job("a-1", [5]))
    harness.sim.run()
    manager.reallocate()
    manager.reallocate()
    block = harness.entry.blocks[0]
    harness.hdfs.namenode.add_cached_replica(block.block_id, "worker-003")
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    manager.reallocate()
    assert manager.demand_cache_misses == misses + 2
    assert manager.demand_cache_hits == hits


def test_watched_pool_change_invalidates_the_watcher(harness):
    """A release on a watched replica node dirties the watcher — whose own
    epoch did not move — and leaves a bystander's entry alone."""
    harness = type(harness)(delay_wait=100.0)  # a-1 waits for block 3's node
    manager = make_manager(harness, num_apps=3)
    d0, d1, d2 = (harness.add_app(manager, f"a-{i}") for i in range(3))
    # a-0 takes block 3's node (its block-0 task runs on long after the
    # block-3 one), so a-1's task on block 3 stays unsatisfied and its
    # demand watches worker-003.  a-2 is busy elsewhere.
    job = harness.make_job("a-0", [3, 0])
    job.stages[0].tasks[1].cpu_time = 50.0
    d0.submit_job(job)
    d1.submit_job(harness.make_job("a-1", [3]))
    d2.submit_job(harness.make_job("a-2", [6], cpu=50.0))
    manager.reallocate()
    manager.reallocate()  # settle: entries rebuilt for the stable state
    assert "worker-003" in manager._demand_cache["a-1"].watch_nodes
    assert "worker-003" not in manager._demand_cache["a-2"].watch_nodes
    executor = next(e for e in d0.executors if e.node_id == "worker-003")
    epoch = d1.demand_epoch
    harness.sim.run(until=1.0)  # a-0's block-3 task is done; the slot idles
    assert not executor.running_tasks and executor.owner == "a-0"
    assert manager.revoke_idle(d0, executor)  # worker-003's free list moves
    assert d1.demand_epoch == epoch
    hits, misses = manager.demand_cache_hits, manager.demand_cache_misses
    plan = manager.reallocate()
    assert manager.demand_cache_misses == misses + 2  # a-0 (epoch), a-1 (pool)
    assert manager.demand_cache_hits == hits + 1  # a-2 untouched
    assert plan.grants.get("a-1") == [executor.executor_id]


def test_pool_diff_stamps_changed_and_vanished_nodes(harness):
    manager = make_manager(harness)
    manager._diff_pool({"n1": ["e1"], "n2": ["e2"], "n3": ["e3", "e4"]})
    first = manager._pool_version
    manager._diff_pool({"n1": ["e1"], "n3": ["e4", "e3"], "n4": ["e5"]})
    second = manager._pool_version
    assert second > first
    assert manager._node_version["n1"] == first  # same list: untouched
    for node in ("n2", "n3", "n4"):  # vanished, reordered, new
        assert manager._node_version[node] == second
    manager._diff_pool({"n1": ["e1"], "n3": ["e4", "e3"], "n4": ["e5"]})
    assert manager._pool_version == second  # no change, no new version


class FlakyInjector:
    """Node ``worker-001`` is unreachable on [1, 4): the master cannot see
    its executors, though no grant or release touches them."""

    def __init__(self, sim):
        self.sim = sim

    def node_reachable(self, node_id):
        return node_id != "worker-001" or not 1.0 <= self.sim.now < 4.0

    def node_down(self, node_id):
        return False


def check_against_reference(manager):
    """Shadow the cached demand builder: every round's demands and fill
    limits must equal a from-scratch :meth:`_build_demands` of the pool."""
    cached = manager._build_demands_incremental

    def checked(pool):
        result = cached(pool)
        assert result == manager._build_demands(pool)
        return result

    manager._build_demands_incremental = checked


def run_flaky_scenario(harness, detector):
    from repro.faults.detector import AdaptiveFailureDetector

    manager = make_manager(harness, num_apps=3)
    manager.fault_injector = FlakyInjector(harness.sim)
    if detector:
        # worker-002's heartbeats stop on [2, 40): it is suspected, then
        # believed dead, then trusted again — belief moves, grants don't.
        manager.detector = AdaptiveFailureDetector(harness.sim, interval=1.0)
        harness.sim.schedule_at(2.0, manager.detector.begin_outage, "worker-002")
        harness.sim.schedule_at(40.0, manager.detector.end_outage, "worker-002")
    assert manager._incremental_enabled
    check_against_reference(manager)
    drivers = [harness.add_app(manager, f"a-{i}") for i in range(3)]
    for k in range(8):
        for i, driver in enumerate(drivers):
            job = harness.make_job(driver.app_id, [(k + 3 * i) % 8, (k + 1) % 8])
            harness.sim.schedule_at(k * 0.9 + 0.1 * i, driver.submit_job, job)
    for t in (1.0, 2.5, 4.0, 20.0, 30.0, 45.0):
        harness.sim.schedule_at(t, manager.reallocate)
    harness.sim.run()
    assert manager.demand_cache_hits > 0
    assert manager.demand_cache_misses > 0
    assert all(j.finished for d in drivers for j in d.app.jobs)


def test_fault_injection_keeps_the_cache(harness):
    """Under fault injection the cache still serves rounds, and every
    round's demands match a from-scratch rebuild — with the injector's
    reachability alone, and with a detector's beliefs on top."""
    for detector in (False, True):
        run_flaky_scenario(type(harness)(), detector)


def test_incremental_is_the_default_engine(harness):
    manager = make_manager(harness)
    assert manager.alloc_engine == "incremental"
    assert manager.allocator.engine == "incremental"


def test_unknown_engine_rejected(harness):
    with pytest.raises(ValueError, match="unknown allocation engine"):
        make_manager(harness, alloc_engine="bogus")
