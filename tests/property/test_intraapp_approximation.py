"""Alg. 2's ½-approximation, pinned on the production allocation path.

The greedy priority rule is heaviest-edge-first matching under weights
``1/µ_ij``; on rounds where every job is fresh (``total_tasks ==
unsatisfied``) it reaches at least half of the exact optimum's Eq. 9 credit.
Once jobs carry already-satisfied tasks the weights no longer follow the
service order, and only the job-count objective (Eq. 6–8) still matches —
the hand-written case below is the minimal counterexample.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import two_level_allocate_incremental
from repro.core.demand import AppDemand, JobDemand, TaskDemand
from repro.core.intraapp import optimal_intra_app, plan_value


@st.composite
def fresh_single_app_rounds(draw):
    """One application whose jobs have no satisfied tasks yet."""
    n_execs = draw(st.integers(min_value=1, max_value=8))
    idle = [f"E{i}" for i in range(n_execs)]
    jobs = []
    for j in range(draw(st.integers(min_value=1, max_value=4))):
        tasks = tuple(
            TaskDemand.of(
                f"J{j}-t{t}",
                draw(st.lists(st.sampled_from(idle), max_size=3, unique=True)),
            )
            for t in range(draw(st.integers(min_value=1, max_value=4)))
        )
        jobs.append(JobDemand(f"J{j}", tasks))
    quota = draw(st.integers(min_value=1, max_value=n_execs))
    held = draw(st.integers(min_value=0, max_value=quota))
    app = AppDemand(app_id="A", jobs=tuple(jobs), quota=quota, held=held)
    return app, idle


@given(fresh_single_app_rounds())
@settings(max_examples=300, deadline=None)
def test_greedy_reaches_half_the_optimal_credit_on_fresh_jobs(round_input):
    app, idle = round_input
    plan = two_level_allocate_incremental([app], idle, fill=False)
    greedy_credit = plan_value(plan.assignment, app)[1]
    optimal_credit = plan_value(optimal_intra_app(app, idle).assignment, app)[1]
    assert greedy_credit >= 0.5 * optimal_credit - 1e-9


def test_partially_satisfied_jobs_fall_outside_the_credit_bound():
    """One executor, two one-task jobs wanting it: j0 has µ = 4 (three tasks
    already satisfied), j1 has µ = 1.  The job-priority tie-break serves j0
    for 0.25 credit against the optimum's 1.0; both make one job local."""
    app = AppDemand(
        app_id="A",
        jobs=(
            JobDemand("j0", (TaskDemand.of("j0-t", ["e0"]),), total_tasks=4),
            JobDemand("j1", (TaskDemand.of("j1-t", ["e0"]),), total_tasks=1),
        ),
        quota=1,
    )
    plan = two_level_allocate_incremental([app], ["e0"], fill=False)
    optimum = optimal_intra_app(app, ["e0"])
    assert plan.assignment == {"j0-t": "e0"}
    assert plan_value(plan.assignment, app) == (1, 0.25)
    assert plan_value(optimum.assignment, app) == (1, 1.0)
