"""Scaling bench — incremental rate engine vs full-recompute reference.

Times per-event rate reallocation under flow churn at 10²–10⁵ concurrent
flows (see :mod:`netbench` for the workload model) and
verifies the two allocators produce identical rate vectors.

Three entry points:

* ``pytest benchmarks/bench_network_scale.py`` — the ``bench``-marked test
  runs the 10²–10⁴ trajectory and asserts the acceptance floor (≥5× at 10⁴
  concurrent flows);
* ``python benchmarks/bench_network_scale.py --smoke`` — the CI perf gate:
  three small fixed points (pod-structured, all-to-all, equal-capacity)
  with conservative speedup floors, exits non-zero on regression;
* ``python benchmarks/bench_network_scale.py [--full]`` — the printable
  trajectory (``--full`` extends to 10⁵ flows), written to
  ``BENCH_network.json``.
"""

import argparse
import sys

import pytest

from common import emit

from netbench import run_scale_bench, write_trajectory
from repro.metrics.report import format_table

#: CI smoke gate: at each point the incremental engine must beat the full
#: recompute by at least ``min_speedup``; every point also passes the
#: bitwise rate-equality check of :func:`netbench.run_scale_bench`.
#:
#: * ``pod`` — pod-structured traffic (pod size 16), the shape of real runs.
#:   Measured ~50x with component recompute alone and ~900x with the fast
#:   path; the floor only trips on a genuine algorithmic regression, not
#:   scheduler noise.
#: * ``all-to-all`` — one giant component, the worst case of component
#:   recompute (~1-4x).  The uplink-bound fast path re-rates one uplink's
#:   flows per event instead: measured ~850x, floored at 25x.
#: * ``equal-capacity`` — pods with downlinks as slow as uplinks, so
#:   downlinks bind and every recompute takes the component fallback
#:   (~130 flows re-solved per event, measured 50-85x).  The point must
#:   re-solve at least ``min_component`` flows per recompute on average,
#:   or it no longer exercises the fallback.
SMOKE_FLOWS = 2000
SMOKE_EVENTS = 15
SMOKE_POINTS = (
    dict(label="pod", pod_size=16, downlink=40e9, min_speedup=2.0, min_component=0),
    dict(label="all-to-all", pod_size=None, downlink=40e9, min_speedup=25.0,
         min_component=0),
    dict(label="equal-capacity", pod_size=16, downlink=2e9, min_speedup=2.0,
         min_component=50),
)

#: Acceptance floor from the issue: >=5x at 10^4 concurrent flows.
ACCEPTANCE_FLOWS = 10_000
ACCEPTANCE_MIN_SPEEDUP = 5.0


def _emit_points(points) -> None:
    emit(format_table(
        ["flows", "nodes", "reference s", "incremental s", "speedup",
         "flows/recompute"],
        [[p.flows, p.nodes, p.reference_seconds, p.incremental_seconds,
          p.speedup, p.mean_component] for p in points],
        title="rate-engine scaling (equal-rate checked per point)",
    ))


@pytest.mark.bench
@pytest.mark.slow
def test_bench_network_scale():
    """Trajectory through 10^4 flows; asserts the acceptance speedup floor."""
    points = run_scale_bench([100, 1000, ACCEPTANCE_FLOWS], events=20)
    _emit_points(points)
    write_trajectory(points)
    top = points[-1]
    assert top.flows == ACCEPTANCE_FLOWS
    assert top.speedup >= ACCEPTANCE_MIN_SPEEDUP, (
        f"incremental engine only {top.speedup:.1f}x faster at {top.flows} flows "
        f"(need >= {ACCEPTANCE_MIN_SPEEDUP}x)"
    )


def smoke() -> int:
    """CI perf gate: a few modest points, conservative floors, loud verdicts."""
    failed = 0
    for gate in SMOKE_POINTS:
        (point,) = run_scale_bench(
            [SMOKE_FLOWS], events=SMOKE_EVENTS, pod_size=gate["pod_size"],
            downlink=gate["downlink"],
        )
        print(
            f"smoke {gate['label']}: {point.flows} flows, {point.events} events — "
            f"reference {point.reference_seconds:.3f}s, "
            f"incremental {point.incremental_seconds:.4f}s, "
            f"speedup {point.speedup:.1f}x (gate {gate['min_speedup']}x), "
            f"flows/recompute {point.mean_component:.1f}, "
            f"max rate delta {point.max_abs_rate_delta:g}"
        )
        if point.speedup < gate["min_speedup"]:
            print(f"PERF REGRESSION ({gate['label']}): incremental engine lost "
                  "its edge", file=sys.stderr)
            failed += 1
        if point.mean_component < gate["min_component"]:
            print(f"GATE DRIFT ({gate['label']}): only {point.mean_component:.1f} "
                  f"flows/recompute, so the component fallback no longer runs",
                  file=sys.stderr)
            failed += 1
    if failed:
        return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI perf gate")
    parser.add_argument("--full", action="store_true",
                        help="extend the trajectory to 10^5 flows")
    parser.add_argument("--events", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_network.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    counts = [100, 1000, 10_000] + ([100_000] if args.full else [])
    points = run_scale_bench(counts, events=args.events, seed=args.seed)
    for p in points:
        print(f"flows={p.flows:>7} nodes={p.nodes:>6} "
              f"ref={p.reference_seconds:.4f}s inc={p.incremental_seconds:.4f}s "
              f"speedup={p.speedup:.1f}x flows/recompute={p.mean_component:.1f}")
    if args.out:
        print(f"saved: {write_trajectory(points, args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
