"""Which public functions of which layer the traced run wraps, and the
per-layer metrics derived from the recorded spans."""

from __future__ import annotations

import time
from typing import Dict, List

from spans import Hook, SpanRecorder, percentile, tail_percentile

__all__ = ["Counts", "GcClock", "hooks", "layer_metrics"]


class Counts:
    """Tallies taken from call arguments and results, outside span timing."""

    def __init__(self) -> None:
        self.pick_hits = 0
        self.recompute_flows = 0

    def on_pick(self, args, result) -> None:
        if result is not None:
            self.pick_hits += 1

    def on_recompute(self, args, result) -> None:
        self.recompute_flows += len(args[0])


class GcClock:
    """Collector passes and pause seconds; append it to ``gc.callbacks``."""

    def __init__(self) -> None:
        self.collections = 0
        self.pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections += 1


def hooks(counts: Counts) -> List[Hook]:
    """Every wrapped method, named ``layer.function``."""
    from repro.core.allocation import DataAwareAllocator
    from repro.faults.injector import FaultInjector
    from repro.hdfs.namenode import NameNode
    from repro.managers.custody import CustodyManager
    from repro.metrics.collector import MetricsCollector
    from repro.network.fabric import NetworkFabric
    from repro.network.rate_engine import RateEngine
    from repro.obs.metrics import Counter, Gauge, Histogram, MetricFamily
    from repro.obs.tracer import Tracer
    from repro.scheduling.policies import DelayScheduler
    from repro.simulation.engine import Simulation
    from repro.workload.generators import JobFactory

    return [
        Hook(Simulation, "step", "simulation.step"),
        Hook(DelayScheduler, "pick_task", "scheduling.pick", counts.on_pick),
        Hook(DelayScheduler, "next_wakeup", "scheduling.wakeup"),
        Hook(NameNode, "serving_locations", "hdfs.serving"),
        Hook(RateEngine, "recompute", "network.recompute", counts.on_recompute),
        Hook(NetworkFabric, "start_transfer", "network.transfer"),
        Hook(CustodyManager, "reallocate", "managers.round"),
        Hook(CustodyManager, "grant", "managers.grant"),
        Hook(DataAwareAllocator, "allocate", "core.allocate"),
        Hook(FaultInjector, "cpu_factor", "faults.query"),
        Hook(FaultInjector, "reachable", "faults.query"),
        Hook(FaultInjector, "node_down", "faults.query"),
        Hook(Tracer, "emit", "obs.emit"),
        Hook(Counter, "inc", "obs.instrument"),
        Hook(Gauge, "set", "obs.instrument"),
        Hook(Histogram, "observe", "obs.instrument"),
        Hook(MetricFamily, "labels", "obs.instrument"),
        Hook(JobFactory, "build_job", "workload.build_job"),
        Hook(MetricsCollector, "collect", "metrics.collect"),
    ]


def layer_metrics(rec: SpanRecorder, counts: Counts, gc_clock: GcClock,
                  result) -> Dict[str, float]:
    """Per-layer figures of one traced run (counts, self seconds, ratios)."""
    summary = rec.summary()

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def ms(name: str, p: float) -> float:
        durations = rec.durations(name)
        return percentile(durations, p) * 1e3 if len(durations) else 0.0

    picks = calls("scheduling.pick")
    recomputes = calls("network.recompute")
    rounds = calls("managers.round")
    # The highest standard percentile with at least ten rounds beyond it.
    tail = tail_percentile(rounds) or 50.0
    manager = result.manager
    cache_requests = manager.demand_cache_hits + manager.demand_cache_misses
    faults = result.faults
    recovery = result.recovery
    return {
        "simulation.events": calls("simulation.step"),
        "simulation.self_s": self_s("simulation.step"),
        "scheduling.pick_calls": picks,
        "scheduling.pick_self_s": self_s("scheduling.pick"),
        "scheduling.pick_hit_ratio": counts.pick_hits / picks if picks else 0.0,
        "scheduling.wakeup_calls": calls("scheduling.wakeup"),
        "scheduling.wakeup_self_s": self_s("scheduling.wakeup"),
        "hdfs.serving_calls": calls("hdfs.serving"),
        "hdfs.serving_self_s": self_s("hdfs.serving"),
        "hdfs.lookups_per_launch": (
            calls("hdfs.serving") / counts.pick_hits if counts.pick_hits else 0.0
        ),
        "network.recompute_calls": recomputes,
        "network.recompute_self_s": self_s("network.recompute"),
        "network.recompute_p50_ms": ms("network.recompute", 50.0),
        "network.recompute_p99_ms": ms("network.recompute", 99.0),
        "network.flows_per_recompute": (
            counts.recompute_flows / recomputes if recomputes else 0.0
        ),
        "network.transfers": calls("network.transfer"),
        "managers.rounds": rounds,
        "managers.grants": calls("managers.grant"),
        "managers.round_self_s": rec.self_seconds(
            "managers.round", ("managers.grant", "core.allocate")
        ),
        "managers.round_p50_ms": ms("managers.round", 50.0),
        "managers.round_tail_ms": ms("managers.round", tail),
        "managers.demand_cache_hit_ratio": (
            manager.demand_cache_hits / cache_requests if cache_requests else 0.0
        ),
        "core.allocate_calls": calls("core.allocate"),
        "core.allocate_self_s": self_s("core.allocate"),
        "faults.injected": faults.injected if faults else 0,
        "faults.tasks_requeued": faults.tasks_requeued if faults else 0,
        "faults.query_calls": calls("faults.query"),
        "faults.query_self_s": self_s("faults.query"),
        "recovery.rounds_stalled": recovery.rounds_stalled if recovery else 0,
        "recovery.leases_readopted": recovery.leases_readopted if recovery else 0,
        "obs.emit_calls": calls("obs.emit"),
        "obs.emit_self_s": self_s("obs.emit"),
        "obs.instrument_calls": calls("obs.instrument"),
        "obs.instrument_self_s": self_s("obs.instrument"),
        "workload.build_job_self_s": self_s("workload.build_job"),
        "metrics.collect_s": summary.get("metrics.collect", {}).get("total_s", 0.0),
        "gc.collections": gc_clock.collections,
        "gc.pause_s": gc_clock.pause_s,
    }
