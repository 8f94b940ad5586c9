"""ExperimentMetrics: one summary object per experiment run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.core.fairness import jains_index
from repro.metrics.locality import (
    local_job_fraction,
    locality_level_breakdown,
    per_job_locality,
)
from repro.metrics.timings import (
    average_completion_time,
    average_input_stage_time,
    average_scheduler_delay,
    makespan,
)
from repro.workload.application import Application
from repro.workload.job import Job

__all__ = ["ExperimentMetrics", "FaultStats", "MetricsCollector"]


@dataclass
class FaultStats:
    """Failure-and-recovery tallies for one run under fault injection.

    Assembled by the experiment runner from the injector, the drivers and
    the manager; ``None`` on :class:`ExperimentResult` when the run had no
    fault plan.
    """

    injected: int = 0  #: fault events that fired
    tasks_requeued: int = 0  #: synchronous requeues after executor loss
    failed_attempts: int = 0  #: attempts that died mid-flight (fetch failed)
    abandoned_tasks: int = 0  #: tasks given up permanently
    data_loss_tasks: int = 0  #: abandoned because every input replica died
    blacklist_events: int = 0  #: node blacklistings across all drivers
    failed_launches: int = 0  #: grants that landed on dead/unreachable nodes
    detector_reports: int = 0  #: failed-launch reports fed to the detector
    replicas_lost: int = 0  #: disk/cache replicas wiped by faults
    replicas_restored: int = 0  #: replicas copied back by re-replication
    blocks_lost: int = 0  #: blocks whose every replica vanished
    recovery_flows: int = 0  #: modeled re-replication transfers started
    recovery_bytes: float = 0.0  #: bytes moved by recovery transfers
    transfers_failed: int = 0  #: fabric transfers aborted by faults
    mttr: Dict[str, float] = field(default_factory=dict)  #: mean repair time per kind
    # -------------------------------------------------- robustness tallies
    # All zero unless the corresponding mechanism (adaptive detector,
    # budgets, breakers, hedging, admission control) was enabled.
    detector_suspicions: int = 0  #: alive -> suspected transitions observed
    detector_false_positives: int = 0  #: declared dead while actually up
    detector_false_negatives: int = 0  #: outage healed before detection
    detector_true_positives: int = 0  #: outages correctly declared dead
    retries_denied: int = 0  #: retries refused by exhausted budgets
    hedges_launched: int = 0  #: hedged backup attempts fired
    hedges_won: int = 0  #: hedges that beat the primary attempt
    hedges_lost: int = 0  #: hedges cancelled when the primary won
    breaker_opens: int = 0  #: breaker trips (closed/half-open -> open)
    breaker_probes: int = 0  #: half-open probe launches admitted
    breaker_closes: int = 0  #: verified recoveries (half-open -> closed)
    breakers_open_at_end: int = 0  #: breakers still excluding a node at quiescence
    admission_deferred: int = 0  #: job admissions deferred under overload
    load_shed: int = 0  #: re-checks that found the overload sustained
    # ----------------------------------------------- crash-recovery tallies
    # All zero unless manager_recovery was on and a ManagerCrash fired.
    manager_crashes: int = 0  #: control-plane crashes injected
    manager_recoveries: int = 0  #: restarts that completed reconciliation
    recovery_seconds_mean: float = 0.0  #: mean crash -> allocation-resumed
    leases_readopted: int = 0  #: live leases re-adopted work-preservingly
    leases_expired: int = 0  #: leases past expiry (reclaimed or orphaned)
    zombies_reclaimed: int = 0  #: allocated executors the WAL never recorded
    zombies_surviving: int = 0  #: zombies still allocated after reconciliation
    wal_replay_entries: int = 0  #: WAL entries replayed by the last restart
    wal_lost_entries: int = 0  #: WAL tail destroyed by the flush lag
    checkpoints_taken: int = 0  #: manager state snapshots taken
    rounds_stalled: int = 0  #: round triggers dropped while down
    recovery_tasks_requeued: int = 0  #: tasks requeued by lease reclaims
    submissions_buffered: int = 0  #: jobs buffered against a down manager
    submission_retries: int = 0  #: buffered-submission retry attempts

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection."""
        return {
            "format_version": 1,
            "injected": self.injected,
            "tasks_requeued": self.tasks_requeued,
            "failed_attempts": self.failed_attempts,
            "abandoned_tasks": self.abandoned_tasks,
            "data_loss_tasks": self.data_loss_tasks,
            "blacklist_events": self.blacklist_events,
            "failed_launches": self.failed_launches,
            "detector_reports": self.detector_reports,
            "replicas_lost": self.replicas_lost,
            "replicas_restored": self.replicas_restored,
            "blocks_lost": self.blocks_lost,
            "recovery_flows": self.recovery_flows,
            "recovery_bytes": self.recovery_bytes,
            "transfers_failed": self.transfers_failed,
            "mttr": dict(self.mttr),
            "detector_suspicions": self.detector_suspicions,
            "detector_false_positives": self.detector_false_positives,
            "detector_false_negatives": self.detector_false_negatives,
            "detector_true_positives": self.detector_true_positives,
            "retries_denied": self.retries_denied,
            "hedges_launched": self.hedges_launched,
            "hedges_won": self.hedges_won,
            "hedges_lost": self.hedges_lost,
            "breaker_opens": self.breaker_opens,
            "breaker_probes": self.breaker_probes,
            "breaker_closes": self.breaker_closes,
            "breakers_open_at_end": self.breakers_open_at_end,
            "admission_deferred": self.admission_deferred,
            "load_shed": self.load_shed,
            "manager_crashes": self.manager_crashes,
            "manager_recoveries": self.manager_recoveries,
            "recovery_seconds_mean": self.recovery_seconds_mean,
            "leases_readopted": self.leases_readopted,
            "leases_expired": self.leases_expired,
            "zombies_reclaimed": self.zombies_reclaimed,
            "zombies_surviving": self.zombies_surviving,
            "wal_replay_entries": self.wal_replay_entries,
            "wal_lost_entries": self.wal_lost_entries,
            "checkpoints_taken": self.checkpoints_taken,
            "rounds_stalled": self.rounds_stalled,
            "recovery_tasks_requeued": self.recovery_tasks_requeued,
            "submissions_buffered": self.submissions_buffered,
            "submission_retries": self.submission_retries,
        }

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        return (
            f"faults: {self.injected}   requeued: {self.tasks_requeued}   "
            f"failed attempts: {self.failed_attempts}   abandoned: "
            f"{self.abandoned_tasks} (data loss: {self.data_loss_tasks})   "
            f"dead launches: {self.failed_launches}   recovery flows: "
            f"{self.recovery_flows}"
        )


@dataclass(frozen=True)
class ExperimentMetrics:
    """All figures' raw numbers for one run."""

    finished_jobs: int
    unfinished_jobs: int
    locality_mean: float
    locality_std: float
    locality_min: float
    local_job_fraction_per_app: tuple
    avg_jct: Optional[float]
    avg_input_stage_time: Optional[float]
    avg_scheduler_delay: Optional[float]
    makespan: Optional[float]
    fairness_index: float
    per_workload_jct: Dict[str, float] = field(default_factory=dict)
    per_workload_locality: Dict[str, float] = field(default_factory=dict)
    locality_levels: Dict[str, float] = field(default_factory=dict)

    @property
    def min_local_job_fraction(self) -> float:
        """The max-min objective: worst application's local-job fraction."""
        return min(self.local_job_fraction_per_app) if self.local_job_fraction_per_app else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready projection (derived min-fraction included)."""
        return {
            "format_version": 1,
            "finished_jobs": self.finished_jobs,
            "unfinished_jobs": self.unfinished_jobs,
            "locality_mean": self.locality_mean,
            "locality_std": self.locality_std,
            "locality_min": self.locality_min,
            "local_job_fraction_per_app": list(self.local_job_fraction_per_app),
            "min_local_job_fraction": self.min_local_job_fraction,
            "avg_jct": self.avg_jct,
            "avg_input_stage_time": self.avg_input_stage_time,
            "avg_scheduler_delay": self.avg_scheduler_delay,
            "makespan": self.makespan,
            "fairness_index": self.fairness_index,
            "per_workload_jct": dict(self.per_workload_jct),
            "per_workload_locality": dict(self.per_workload_locality),
            "locality_levels": dict(self.locality_levels),
        }


class MetricsCollector:
    """Builds :class:`ExperimentMetrics` from finished applications."""

    def collect(self, apps: Iterable[Application]) -> ExperimentMetrics:
        """Summarise a finished run (all jobs should have completed)."""
        apps = list(apps)
        jobs: List[Job] = [j for app in apps for j in app.jobs]
        finished = [j for j in jobs if j.finished]
        unfinished = [j for j in jobs if not j.finished]
        localities = per_job_locality(finished)
        loc = np.asarray(localities, dtype=np.float64) if localities else np.zeros(0)
        per_app = tuple(local_job_fraction(apps))
        tasks = [t for j in finished for t in j.input_tasks]

        per_workload_jct: Dict[str, float] = {}
        per_workload_loc: Dict[str, float] = {}
        by_workload: Dict[str, List[Job]] = {}
        for job in finished:
            by_workload.setdefault(job.workload or "unknown", []).append(job)
        for name, group in sorted(by_workload.items()):
            jct = average_completion_time(group)
            if jct is not None:
                per_workload_jct[name] = jct
            fracs = per_job_locality(group)
            if fracs:
                per_workload_loc[name] = float(np.mean(fracs))

        return ExperimentMetrics(
            finished_jobs=len(finished),
            unfinished_jobs=len(unfinished),
            locality_mean=float(loc.mean()) if loc.size else 0.0,
            locality_std=float(loc.std()) if loc.size else 0.0,
            locality_min=float(loc.min()) if loc.size else 0.0,
            local_job_fraction_per_app=per_app,
            avg_jct=average_completion_time(finished),
            avg_input_stage_time=average_input_stage_time(finished),
            avg_scheduler_delay=average_scheduler_delay(tasks),
            makespan=makespan(finished),
            fairness_index=jains_index(per_app) if per_app else 1.0,
            per_workload_jct=per_workload_jct,
            per_workload_locality=per_workload_loc,
            locality_levels=locality_level_breakdown(finished),
        )
