"""Bipartite matching primitives.

Two solvers for the weighted bipartite matching between unsatisfied input
tasks and candidate executors:

* :func:`greedy_weighted_matching` — the paper's 2-approximation: repeatedly
  take the heaviest remaining edge compatible with the partial matching
  (§IV-B).  For the job-priority weights (every task of job *j* carries
  weight ``1/µ_j``) this is exactly "serve the job with the fewest input
  tasks first".
* :func:`max_weight_matching_with_budget` — the exact optimum via min-cost
  flow (networkx), with a cardinality budget implemented as a zero-cost
  bypass arc so the flow value stays fixed while unprofitable matches route
  around the bipartite graph.

Both operate on plain ``(task_id, executor_id, weight)`` edge lists, keeping
them reusable outside the allocator.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.common.errors import ConfigurationError

__all__ = ["greedy_weighted_matching", "matching_weight", "max_weight_matching_with_budget"]

Edge = Tuple[str, str, float]

#: Weights are scaled to integers for the min-cost-flow solver; six decimal
#: digits comfortably separates 1/µ weights for µ up to ~10^5 tasks.
_COST_SCALE = 1_000_000


def greedy_weighted_matching(
    edges: Sequence[Edge],
    budget: int | None = None,
) -> Dict[str, str]:
    """Heaviest-edge-first greedy matching (the paper's 2-approximation).

    Ties are broken by ``(task_id, executor_id)`` so the result is
    deterministic.  ``budget`` optionally caps the number of matched pairs
    (the σ_i executor budget).

    Returns task id → executor id.
    """
    if budget is not None and budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    ordered = sorted(edges, key=lambda e: (-e[2], e[0], e[1]))
    matched: Dict[str, str] = {}
    used_executors = set()
    limit = budget if budget is not None else len(ordered)
    for task_id, executor_id, _w in ordered:
        if len(matched) >= limit:
            break
        if task_id in matched or executor_id in used_executors:
            continue
        matched[task_id] = executor_id
        used_executors.add(executor_id)
    return matched


def max_weight_matching_with_budget(
    edges: Sequence[Edge],
    budget: int | None = None,
) -> Dict[str, str]:
    """Exact maximum-weight bipartite matching with ≤ ``budget`` pairs.

    Min-cost-flow formulation: source → each task (cap 1), task → candidate
    executor (cap 1, cost −weight·scale), executor → sink (cap 1), plus a
    source → sink bypass of capacity ``budget`` and cost 0.  Pushing exactly
    ``budget`` units then minimises −(matched weight): profitable matches use
    the bipartite arcs, the rest takes the bypass.

    With no budget the bypass is sized to the task count, making the flow
    value non-binding and the result the unconstrained optimum.

    Returns task id → executor id.
    """
    if budget is not None and budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    if not edges or budget == 0:
        return {}

    tasks = sorted({e[0] for e in edges})
    executors = sorted({e[1] for e in edges})
    cap = len(tasks) if budget is None else min(budget, len(tasks))

    # Imported here: no simulation path needs the exact solver, and
    # networkx dominates start-up.
    import networkx as nx

    graph = nx.DiGraph()
    source, sink = "__source__", "__sink__"
    graph.add_node(source, demand=-cap)
    graph.add_node(sink, demand=cap)
    for t in tasks:
        graph.add_edge(source, ("t", t), capacity=1, weight=0)
    for x in executors:
        graph.add_edge(("e", x), sink, capacity=1, weight=0)
    # Keep the heaviest parallel edge if callers pass duplicates.
    best: Dict[Tuple[str, str], float] = {}
    for task_id, executor_id, weight in edges:
        key = (task_id, executor_id)
        if weight > best.get(key, float("-inf")):
            best[key] = weight
    for (task_id, executor_id), weight in best.items():
        graph.add_edge(
            ("t", task_id),
            ("e", executor_id),
            capacity=1,
            weight=-int(round(weight * _COST_SCALE)),
        )
    graph.add_edge(source, sink, capacity=cap, weight=0)

    flow = nx.min_cost_flow(graph)
    matched: Dict[str, str] = {}
    for task_id in tasks:
        for target, units in flow[("t", task_id)].items():
            if units > 0:
                matched[task_id] = target[1]
    return matched


def matching_weight(matching: Dict[str, str], edges: Sequence[Edge]) -> float:
    """Total weight of ``matching`` under the heaviest duplicate of each edge."""
    best: Dict[Tuple[str, str], float] = {}
    for task_id, executor_id, weight in edges:
        key = (task_id, executor_id)
        if weight > best.get(key, float("-inf")):
            best[key] = weight
    total = 0.0
    for task_id, executor_id in matching.items():
        try:
            total += best[(task_id, executor_id)]
        except KeyError:
            raise ConfigurationError(
                f"matching pair ({task_id}, {executor_id}) is not an edge"
            ) from None
    return total
