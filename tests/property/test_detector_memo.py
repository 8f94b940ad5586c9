"""AdaptiveFailureDetector's memoised beliefs answer like a fresh query.

``state`` is memoised per ``(sim.now, mutation epoch)`` and a node that was
never slowed skips the emission-clock segments.  The oracle below is the
same detector with both shortcuts turned off: every query recomputes from
the outage, slowdown and report histories through the segment walk.
Hypothesis drives both through one random history — outages (nested),
slowdowns (nested, factors up to 8), failed-launch reports, time advances
that land on and between heartbeat ticks — and queries nodes repeatedly at
the same instant.  Every answer, every float behind it and every accuracy
counter must agree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.detector import AdaptiveFailureDetector

NODES = ["n0", "n1", "n2"]
COUNTERS = ("suspicions", "false_positives", "false_negatives", "true_positives")


class Clock:
    """The only part of a Simulation the detector reads."""

    def __init__(self) -> None:
        self.now = 0.0


class Recomputing(AdaptiveFailureDetector):
    """Every query from scratch, through the slow-segment machinery."""

    def _steady(self, node_id: str) -> bool:
        return False

    def state(self, node_id: str) -> str:
        self._beliefs_at = (float("nan"), -1)
        return super().state(node_id)


node = st.sampled_from(NODES)
ops = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 7.3, 20.0])),
    st.tuples(st.just("begin_outage"), node),
    st.tuples(st.just("end_outage"), node),
    st.tuples(st.just("begin_slow"), node, st.sampled_from([1.5, 2.0, 8.0])),
    st.tuples(st.just("end_slow"), node, st.sampled_from([1.5, 2.0, 8.0])),
    st.tuples(st.just("report"), node),
    st.tuples(st.just("query"), node),
)


@settings(max_examples=150, deadline=None)
@given(history=st.lists(ops, max_size=50), interval=st.sampled_from([1.0, 3.0]))
def test_memoised_state_matches_a_recomputing_detector(history, interval):
    clocks = (Clock(), Clock())
    memo = AdaptiveFailureDetector(clocks[0], interval=interval)
    fresh = Recomputing(clocks[1], interval=interval)
    depth = {n: 0 for n in NODES}
    for op in history:
        name = op[0]
        if name == "advance":
            for clock in clocks:
                clock.now += op[1]
            continue
        if name == "end_outage":
            if depth[op[1]] == 0:
                continue
            depth[op[1]] -= 1
        elif name == "begin_outage":
            depth[op[1]] += 1
        for detector in (memo, fresh):
            if name == "report":
                detector.report_failure(op[1])
            elif name != "query":
                getattr(detector, name)(*op[1:])
        # Ask twice per node at this instant: the repeat is a memo hit.
        for _ in range(2):
            for n in NODES if name != "query" else [op[1]]:
                assert memo.state(n) == fresh.state(n)
                assert memo.last_heartbeat(n) == fresh.last_heartbeat(n)
                assert memo.phi(n) == fresh.phi(n)
        for counter in COUNTERS:
            assert getattr(memo, counter) == getattr(fresh, counter), counter
