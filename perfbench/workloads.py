"""The benchmark's workloads: one trace-driven batch simulation each.

A workload fixes the cluster, the HDFS data and the job mix (every
``ExperimentConfig`` stream is rooted at ``DATA_SEED``) and, for
``chaos-observed``, the fault plan.  The benchmark seed draws only the
submission schedule.  Holding the data fixed keeps a run's total work the
same from seed to seed (the Sort job mix alone moves it by 60% otherwise),
so host-time figures compare across seeds; the schedule still decides how
jobs overlap, which is what the scheduling and network layers react to.

Each application submits ``jobs_per_app`` jobs at times drawn uniformly
over one fixed window of ``jobs_per_app * mean_interarrival`` seconds: a
Poisson stream at the configured rate, conditioned on its job count.  The
program's own ``common_schedule`` sums exponential gaps instead, which
lets the last arrival, and with it the makespan, wander by ~15% between
seeds; the fixed window keeps makespan a measure of the system rather than
of the draw.

One benchmark seed ``s`` stands for ``TRACES_PER_RUN`` schedules, with
schedule seeds ``s * TRACES_PER_RUN + i``.

This module imports nothing from ``repro`` at import time: the child
process times that import as part of set-up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["FAULTED", "WORKLOADS", "arrival_seeds", "build_inputs"]

DATA_SEED = 0
TRACES_PER_RUN = 2


_PAPER_WORDCOUNT = dict(
    manager="custody", workload="wordcount", num_nodes=100, num_apps=8,
    jobs_per_app=20, mean_interarrival=14.0,
)

#: ``ExperimentConfig`` fields of each workload (the seed is ``DATA_SEED``).
WORKLOADS: Dict[str, Dict[str, object]] = {
    "paper-wordcount": _PAPER_WORDCOUNT,
    "shuffle-burst": dict(
        manager="custody", workload="sort", num_nodes=50, num_apps=8,
        jobs_per_app=12, mean_interarrival=5.0,
    ),
    "chaos-observed": dict(
        _PAPER_WORDCOUNT,
        manager_recovery=True, detector_timeout=10.0, detector_mode="adaptive",
        circuit_breaker=True, retry_jitter=True, trace=True, metrics=True,
    ),
}
#: Workloads that replay the fault plan; the others must not lose a job.
FAULTED = frozenset({"chaos-observed"})


def arrival_seeds(seed: int) -> List[int]:
    """The schedule seeds one benchmark seed stands for."""
    return [seed * TRACES_PER_RUN + i for i in range(TRACES_PER_RUN)]


def build_inputs(name: str, arrival_seed: int) -> Tuple[object, object, Optional[object]]:
    """``(ExperimentConfig, SubmissionTrace, FaultPlan | None)`` for one run."""
    import numpy as np

    from repro.experiments.config import ExperimentConfig
    from repro.faults.chaos import build_chaos_plan
    from repro.workload.trace import SubmissionEvent, SubmissionTrace

    config = ExperimentConfig(seed=DATA_SEED, **WORKLOADS[name])
    rng = np.random.default_rng(arrival_seed)
    window = config.jobs_per_app * config.mean_interarrival
    trace = SubmissionTrace([
        SubmissionEvent(float(t), app_id, i)
        for app_id in config.app_ids
        for i, t in enumerate(np.sort(rng.uniform(0.0, window, config.jobs_per_app)))
    ])
    plan = None
    if name in FAULTED:
        # What chaos_sweep(gray=True, manager_crash=True) draws at level 2.
        level = 2
        plan = build_chaos_plan(
            config.num_nodes,
            config.executors_per_node,
            np.random.default_rng([DATA_SEED, 7919, level]),
            node_failures=level, partitions=level, degradations=level,
            executor_failures=level, slowdowns=level, link_flaps=level,
            correlated_failures=1, manager_crashes=level, horizon=300.0,
        )
    return config, trace, plan
