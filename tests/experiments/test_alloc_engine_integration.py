"""End-to-end equivalence of the allocation control planes.

``alloc_engine="incremental"`` (the default) must be a pure optimisation:
for every manager, a full experiment run under either engine — with or
without fault injection — produces identical metrics.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def small_config(**kw):
    return ExperimentConfig(
        workload="wordcount",
        num_nodes=8,
        num_apps=2,
        jobs_per_app=3,
        seed=13,
        **kw,
    )


def faulted_inputs(**kw):
    """A gray + crash + manager-crash plan under the adaptive detector with
    circuit breakers and crash recovery."""
    import numpy as np

    from repro.faults.chaos import build_chaos_plan

    config = small_config(
        manager_recovery=True, detector_timeout=10.0, detector_mode="adaptive",
        circuit_breaker=True, retry_jitter=True, **kw,
    )
    plan = build_chaos_plan(
        config.num_nodes, config.executors_per_node, np.random.default_rng(5),
        node_failures=2, partitions=1, degradations=1, executor_failures=2,
        slowdowns=2, link_flaps=1, correlated_failures=1, manager_crashes=1,
        horizon=40.0,
    )
    return config, plan


@pytest.mark.parametrize(
    "manager", ["custody", "standalone", "yarn", "mesos", "custody-faulted"]
)
def test_engines_produce_identical_metrics(manager):
    results = {}
    for engine in ("incremental", "reference"):
        if manager == "custody-faulted":
            config, plan = faulted_inputs(manager="custody", alloc_engine=engine)
            results[engine] = run_experiment(config, fault_plan=plan)
        else:
            config = small_config(manager=manager, alloc_engine=engine)
            results[engine] = run_experiment(config)
    inc, ref = results["incremental"], results["reference"]
    assert inc.metrics.as_dict() == ref.metrics.as_dict()
    assert inc.sim_time == ref.sim_time
    assert inc.allocation_rounds == ref.allocation_rounds
    if manager == "custody-faulted":
        # The faults fired, and the incremental engine really cached.
        assert inc.faults.injected > 0 and inc.recovery.recoveries > 0
        assert inc.manager.demand_cache_hits > 0


def test_alloc_counters_populate_under_perf_counters():
    """The registry carries every allocation count a run produces."""
    result = run_experiment(small_config(manager="custody", metrics=True))
    registry = result.registry
    assert registry is not None
    rounds = registry.get("alloc_rounds_total").labels(manager="custody")
    assert rounds.value == result.allocation_rounds > 0
    # The default engine serves demands from the cache at least sometimes.
    cache = registry.get("demand_cache_requests_total")
    hits = cache.labels(manager="custody", result="hit").value
    misses = cache.labels(manager="custody", result="miss").value
    assert hits == result.manager.demand_cache_hits > 0
    assert misses == result.manager.demand_cache_misses
    snapshot = {m["name"] for m in registry.snapshot()["metrics"]}
    assert {
        "alloc_rounds_total",
        "alloc_rounds_coalesced_total",
        "demand_cache_requests_total",
    } <= snapshot


def test_config_validates_alloc_engine():
    from repro.core.allocation import ALLOCATION_ENGINES

    for engine in ("bogus", "vectorized"):
        with pytest.raises(Exception, match="alloc_engine"):
            small_config(alloc_engine=engine)
    for engine in ALLOCATION_ENGINES:
        assert small_config(alloc_engine=engine).alloc_engine == engine


def test_engine_flags_are_not_on_the_cli():
    """The reference engines are test oracles, reachable only through the
    config; the CLI runs the production engines."""
    from repro.cli import build_parser

    parser = build_parser()
    for flag in ("--alloc-engine=reference", "--network-engine=reference",
                 "--per-event-alloc", "--perf"):
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--manager", "custody", flag])
