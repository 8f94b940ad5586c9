"""The maximum-concurrent-flow formulation of task-level sharing (§III-B).

The paper converts the task-level problem (Eq. 1–5) into a maximum
concurrent flow instance (Fig. 2): one source per application with demand
τ_i, a node per task and per executor, unit capacities, and a common sink.
With integral flows the problem is NP-hard, which motivates Custody's
two-level heuristic.  This module provides the three tools the theory bench
uses to quantify that design decision:

* :func:`build_flow_network` — the literal Fig. 2 graph (networkx), for
  inspection and tests;
* :func:`lp_concurrent_flow_bound` — the fractional LP relaxation solved
  with ``scipy.optimize.linprog``; its optimum λ* upper-bounds any integral
  allocation's min-locality fraction;
* :func:`brute_force_optimum` — the exact integral optimum by exhaustive
  executor-ownership enumeration + per-app maximum bipartite matching, for
  instances small enough to enumerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.core.demand import AppDemand

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

# networkx and scipy are imported inside the functions that use them: no
# simulation path calls these solvers, and the imports dominate start-up.

__all__ = [
    "ConcurrentFlowInstance",
    "build_flow_network",
    "lp_concurrent_flow_bound",
    "brute_force_optimum",
]


@dataclass(frozen=True)
class ConcurrentFlowInstance:
    """A task-level sharing instance: applications plus the executor universe."""

    apps: Tuple[AppDemand, ...]
    executors: Tuple[str, ...]

    @staticmethod
    def of(apps: Sequence[AppDemand], executors: Sequence[str]) -> "ConcurrentFlowInstance":
        """Validating constructor: every candidate must be a known executor."""
        known = set(executors)
        for app in apps:
            for job in app.jobs:
                for task in job.tasks:
                    unknown = task.candidates - known
                    if unknown:
                        raise ConfigurationError(
                            f"task {task.task_id} references unknown executors {sorted(unknown)}"
                        )
        return ConcurrentFlowInstance(tuple(apps), tuple(executors))

    @property
    def demands(self) -> Dict[str, int]:
        """τ_i per application (its total unsatisfied input tasks)."""
        return {a.app_id: a.total_unsatisfied for a in self.apps}


def build_flow_network(instance: ConcurrentFlowInstance) -> nx.DiGraph:
    """The Fig. 2 construction.

    Nodes: ``("source", app)``, ``("task", task_id)``, ``("executor", id)``
    and ``"sink"``.  Edges carry unit capacity except source edges (unit per
    task) — the per-application demand lives in the node attribute
    ``demand`` on its source.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_node("sink")
    for executor in instance.executors:
        graph.add_node(("executor", executor))
        graph.add_edge(("executor", executor), "sink", capacity=1)
    for app in instance.apps:
        src = ("source", app.app_id)
        graph.add_node(src, demand=app.total_unsatisfied)
        for job in app.jobs:
            for task in job.tasks:
                tnode = ("task", task.task_id)
                graph.add_node(tnode)
                graph.add_edge(src, tnode, capacity=1)
                for candidate in sorted(task.candidates):
                    graph.add_edge(tnode, ("executor", candidate), capacity=1)
    return graph


def lp_concurrent_flow_bound(instance: ConcurrentFlowInstance) -> float:
    """λ* of the fractional relaxation — an upper bound on min-i locality %.

    Variables: f_{t,u} (task t served by candidate u), y_{i,u} (executor u
    fractionally allocated to app i), and λ.  Constraints (2)–(4) of the
    paper, with the y/z product linearised as ``f_{t,u} ≤ y_{i(t),u}``.
    Returns λ* ∈ [0, 1]; apps with zero tasks are skipped (their ratio is
    vacuously 1).
    """
    apps = [a for a in instance.apps if a.total_unsatisfied > 0]
    if not apps:
        return 1.0
    # Index variables.
    f_index: Dict[Tuple[str, str], int] = {}
    y_index: Dict[Tuple[str, str], int] = {}
    tasks_of_app: Dict[str, List[str]] = {}
    candidates_of_task: Dict[str, List[str]] = {}
    for app in apps:
        tasks_of_app[app.app_id] = []
        for job in app.jobs:
            for task in job.tasks:
                tasks_of_app[app.app_id].append(task.task_id)
                candidates_of_task[task.task_id] = sorted(task.candidates)
                for u in sorted(task.candidates):
                    f_index[(task.task_id, u)] = len(f_index)
                    y_index.setdefault((app.app_id, u), 0)
    n_f = len(f_index)
    for i, key in enumerate(sorted(y_index)):
        y_index[key] = n_f + i
    n_y = len(y_index)
    lam = n_f + n_y
    n_vars = n_f + n_y + 1

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    rhs: List[float] = []
    row = 0

    def add_entry(r: int, c: int, v: float) -> None:
        rows.append(r)
        cols.append(c)
        vals.append(v)

    # (4) per task: sum_u f <= 1
    for task_id, cands in candidates_of_task.items():
        for u in cands:
            add_entry(row, f_index[(task_id, u)], 1.0)
        rhs.append(1.0)
        row += 1
    # (3) per executor: sum_t f <= 1
    per_exec: Dict[str, List[int]] = {}
    for (task_id, u), idx in f_index.items():
        per_exec.setdefault(u, []).append(idx)
    for u in sorted(per_exec):
        for idx in per_exec[u]:
            add_entry(row, idx, 1.0)
        rhs.append(1.0)
        row += 1
    # linking: f_{t,u} - y_{i(t),u} <= 0
    owner_of_task = {
        t: app.app_id for app in apps for t in tasks_of_app[app.app_id]
    }
    for (task_id, u), idx in f_index.items():
        add_entry(row, idx, 1.0)
        add_entry(row, y_index[(owner_of_task[task_id], u)], -1.0)
        rhs.append(0.0)
        row += 1
    # (2) per executor: sum_i y <= 1
    per_exec_y: Dict[str, List[int]] = {}
    for (app_id, u), idx in y_index.items():
        per_exec_y.setdefault(u, []).append(idx)
    for u in sorted(per_exec_y):
        for idx in per_exec_y[u]:
            add_entry(row, idx, 1.0)
        rhs.append(1.0)
        row += 1
    # concurrency: lambda * tau_i - sum f_i <= 0
    for app in apps:
        tau = app.total_unsatisfied
        add_entry(row, lam, float(tau))
        for task_id in tasks_of_app[app.app_id]:
            for u in candidates_of_task[task_id]:
                add_entry(row, f_index[(task_id, u)], -1.0)
        rhs.append(0.0)
        row += 1

    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    a_ub = coo_matrix((vals, (rows, cols)), shape=(row, n_vars))
    c = np.zeros(n_vars)
    c[lam] = -1.0
    bounds = [(0.0, 1.0)] * (n_f + n_y) + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=np.asarray(rhs), bounds=bounds, method="highs")
    if not res.success:  # pragma: no cover - linprog failure is exceptional
        raise ConfigurationError(f"LP relaxation failed: {res.message}")
    return float(res.x[lam])


def brute_force_optimum(
    instance: ConcurrentFlowInstance, *, max_states: int = 2_000_000
) -> Tuple[float, Dict[str, str]]:
    """Exact integral optimum of Eq. (1): max over executor ownerships.

    Enumerates every assignment of each executor to one application (or to
    nobody), computing for each the per-application maximum bipartite
    matching between its tasks and its executors; the objective is
    ``min_i matched_i / τ_i``.  Exponential — guarded by ``max_states``.

    Returns ``(optimum, ownership)`` where ownership maps executor id → app
    id for one optimal assignment.
    """
    apps = [a for a in instance.apps if a.total_unsatisfied > 0]
    if not apps:
        return 1.0, {}
    executors = list(instance.executors)
    n_states = (len(apps) + 1) ** len(executors)
    if n_states > max_states:
        raise ConfigurationError(
            f"{n_states} ownership states exceed max_states={max_states}"
        )

    # Pre-extract per-app task candidate lists.
    app_tasks: Dict[str, List[Tuple[str, frozenset]]] = {
        app.app_id: [
            (task.task_id, task.candidates) for job in app.jobs for task in job.tasks
        ]
        for app in apps
    }
    quotas = {app.app_id: app.quota for app in apps}
    taus = {app.app_id: app.total_unsatisfied for app in apps}

    import networkx as nx

    best = -1.0
    best_ownership: Dict[str, str] = {}
    choices = [None] + [a.app_id for a in apps]
    for combo in itertools.product(choices, repeat=len(executors)):
        owned: Dict[str, List[str]] = {a.app_id: [] for a in apps}
        for executor, owner in zip(executors, combo):
            if owner is not None:
                owned[owner].append(executor)
        if any(len(owned[a]) > quotas[a] for a in owned):
            continue
        worst = float("inf")
        for app_id, held in owned.items():
            held_set = set(held)
            graph = nx.Graph()
            left = []
            for task_id, candidates in app_tasks[app_id]:
                usable = candidates & held_set
                if usable:
                    left.append(task_id)
                    for u in usable:
                        graph.add_edge(("t", task_id), ("e", u))
            matched = 0
            if graph.number_of_edges():
                matching = nx.bipartite.maximum_matching(
                    graph, top_nodes=[("t", t) for t in left]
                )
                matched = sum(1 for k in matching if k[0] == "t")
            worst = min(worst, matched / taus[app_id])
        if worst > best:
            best = worst
            best_ownership = {
                executor: owner
                for executor, owner in zip(executors, combo)
                if owner is not None
            }
    return best, best_ownership
