"""Custody's core: the data-aware resource sharing problem and its solution.

The package is pure — no simulator state — so the allocation theory can be
tested and benchmarked in isolation:

* :mod:`repro.core.demand` — the problem instance: applications, jobs and
  input tasks with their candidate (replica-holding) executors.
* :mod:`repro.core.intraapp` — Algorithm 2: priority (fewest-unsatisfied-
  tasks-first) allocation inside one application; on fresh jobs the
  greedy ½-approximation to constrained bipartite matching, plus the optimal
  matching via min-cost flow for comparison.
* :mod:`repro.core.interapp` — Algorithm 1: MINLOCALITY max-min fair
  ordering across applications.
* :mod:`repro.core.allocation` — the two-level procedure combining both,
  producing an :class:`~repro.core.demand.AllocationPlan`.
* :mod:`repro.core.flownetwork` — the maximum-concurrent-flow formulation
  (Fig. 2): network construction, LP relaxation upper bound, and an exact
  brute-force solver for small instances.
* :mod:`repro.core.matching` — bipartite matching primitives shared by the
  above.
* :mod:`repro.core.fairness` — max-min fairness predicates and indices.
"""

from repro.core.allocation import DataAwareAllocator, two_level_allocate
from repro.core.demand import (
    AllocationPlan,
    AppDemand,
    JobDemand,
    TaskDemand,
    validate_plan,
)
from repro.core.fairness import is_maxmin_fair_improvement, jains_index, lexmin_key
from repro.core.flownetwork import (
    ConcurrentFlowInstance,
    brute_force_optimum,
    build_flow_network,
    lp_concurrent_flow_bound,
)
from repro.core.interapp import min_locality_order
from repro.core.intraapp import (
    greedy_intra_app,
    optimal_intra_app,
    plan_value,
)
from repro.core.matching import (
    greedy_weighted_matching,
    matching_weight,
    max_weight_matching_with_budget,
)

__all__ = [
    "AllocationPlan",
    "AppDemand",
    "ConcurrentFlowInstance",
    "DataAwareAllocator",
    "JobDemand",
    "TaskDemand",
    "brute_force_optimum",
    "build_flow_network",
    "greedy_intra_app",
    "greedy_weighted_matching",
    "is_maxmin_fair_improvement",
    "jains_index",
    "lexmin_key",
    "lp_concurrent_flow_bound",
    "matching_weight",
    "max_weight_matching_with_budget",
    "min_locality_order",
    "optimal_intra_app",
    "plan_value",
    "two_level_allocate",
    "validate_plan",
]
