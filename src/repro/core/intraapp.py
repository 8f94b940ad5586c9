"""Algorithm 2 — data-aware intra-application allocation.

Given one application's unsatisfied input tasks, the executors currently
idle, and the budget σ_i − ζ_i, choose executors that maximise the number of
*local jobs* (Eq. 9).  The paper's strategy: process jobs in increasing
order of unsatisfied input tasks, satisfying **all** tasks of a job before
moving on ("we apply for all the desired executors of a job before moving to
the next job"), because partially-local jobs are still straggler-bound
(Fig. 4/5).  On fresh jobs (no input task satisfied yet, so µ_ij equals the
unsatisfied count) this is greedy heaviest-edge-first matching under weights
``1/µ_ij``, and it reaches at least half the Eq. 9 credit of the constrained
bipartite matching optimum, which :func:`optimal_intra_app` computes
exactly.  Once a job carries already-satisfied tasks its weight no longer
follows the service order and that credit bound fails; only the job-count
objective (Eq. 6–8) still matches the optimum there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.core.demand import AppDemand, JobDemand
from repro.core.matching import max_weight_matching_with_budget

__all__ = ["IntraAppResult", "greedy_intra_app", "optimal_intra_app", "plan_value", "job_priority_order"]


@dataclass
class IntraAppResult:
    """Outcome of one intra-application round."""

    granted: List[str] = field(default_factory=list)
    assignment: Dict[str, str] = field(default_factory=dict)
    satisfied_jobs: List[str] = field(default_factory=list)

    @property
    def locality_grants(self) -> int:
        """Executors granted with a locality promise attached."""
        return len(self.assignment)


def job_priority_order(jobs: Sequence[JobDemand]) -> List[JobDemand]:
    """Jobs in Algorithm 2's service order: fewest unsatisfied tasks first.

    The paper breaks ties randomly; we break them by job id so allocation is
    reproducible (randomised tie-breaking is exercised separately in the
    ablation bench by shuffling ids).
    """
    return sorted(jobs, key=lambda j: (j.unsatisfied, j.job_id))


def greedy_intra_app(
    app: AppDemand,
    idle_executors: Sequence[str],
    *,
    budget: Optional[int] = None,
    fill: bool = False,
    fill_limit: Optional[int] = None,
) -> IntraAppResult:
    """Algorithm 2, run to completion for a single application.

    Parameters
    ----------
    app:
        The application's demand (jobs already carry unsatisfied tasks only).
    idle_executors:
        Idle executor ids, in cluster order; order matters only for the
        deterministic tie-break.
    budget:
        Maximum executors to grant; defaults to ``app.budget`` (σ_i − ζ_i).
    fill:
        When True, after the locality pass any remaining budget is filled
        with arbitrary idle executors (lines 17–20 of Algorithm 2) so
        non-local tasks still find slots.
    fill_limit:
        Cap on the number of filler executors (None = no extra cap).
    """
    limit = app.budget if budget is None else budget
    if limit < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    result = IntraAppResult()
    available: Set[str] = set(idle_executors)
    order = {ex: i for i, ex in enumerate(idle_executors)}

    for job in job_priority_order(app.jobs):
        promised_here: List[Tuple[str, str]] = []
        for task in job.tasks:
            if len(result.granted) >= limit:
                break
            usable = [c for c in task.candidates if c in available]
            if not usable:
                continue
            choice = min(usable, key=lambda ex: order[ex])
            available.discard(choice)
            result.granted.append(choice)
            result.assignment[task.task_id] = choice
            promised_here.append((task.task_id, choice))
        if len(promised_here) == job.unsatisfied and job.unsatisfied > 0:
            result.satisfied_jobs.append(job.job_id)
        if len(result.granted) >= limit:
            break

    if fill and len(result.granted) < limit:
        extra_cap = limit - len(result.granted)
        if fill_limit is not None:
            extra_cap = min(extra_cap, fill_limit)
        for ex in idle_executors:
            if extra_cap <= 0:
                break
            if ex in available:
                available.discard(ex)
                result.granted.append(ex)
                extra_cap -= 1
    return result


def optimal_intra_app(
    app: AppDemand,
    idle_executors: Sequence[str],
    *,
    budget: Optional[int] = None,
) -> IntraAppResult:
    """Exact optimum of the intra-application problem (Eq. 9–10).

    Solves the constrained bipartite matching with edge weights ``1/µ_ij``
    via min-cost flow.  Used by the ablation bench to measure how far the
    greedy priority rule is from optimal in practice (the paper argues the
    greedy is *more* beneficial in practice because whole-job satisfaction
    avoids stragglers; the weight model already encodes that preference).
    """
    limit = app.budget if budget is None else budget
    if limit < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    available = set(idle_executors)
    edges = []
    for job in app.jobs:
        weight = 1.0 / max(job.total_tasks, 1)  # type: ignore[arg-type]
        for task in job.tasks:
            for candidate in sorted(task.candidates):
                if candidate in available:
                    edges.append((task.task_id, candidate, weight))
    matching = max_weight_matching_with_budget(edges, budget=limit)
    result = IntraAppResult(
        granted=sorted(matching.values()), assignment=dict(matching)
    )
    for job in app.jobs:
        if job.unsatisfied > 0 and all(t.task_id in matching for t in job.tasks):
            result.satisfied_jobs.append(job.job_id)
    return result


def plan_value(assignment: Dict[str, str], app: AppDemand) -> Tuple[int, float]:
    """Score an assignment for ``app``: (fully-local jobs, Σ 1/µ_ij credit).

    The first component is the paper's job-level objective (Eq. 6–8); the
    second is the simplified fractional objective (Eq. 9) the matching
    optimises.
    """
    satisfied = set(assignment)
    local_jobs = 0
    credit = 0.0
    for job in app.jobs:
        hits = sum(1 for t in job.tasks if t.task_id in satisfied)
        credit += hits / max(job.total_tasks, 1)  # type: ignore[arg-type]
        if job.unsatisfied > 0 and hits == job.unsatisfied:
            local_jobs += 1
    return local_jobs, credit
