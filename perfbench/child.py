"""One simulation in a fresh process; prints one JSON line of results.

Usage: ``python3 perfbench/child.py WORKLOAD ARRIVAL_SEED SPAWNED_AT [--trace OUT]``

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it started
this process; both processes read the same system-wide monotonic clock, so
set-up and wall time include interpreter start-up.  Without ``--trace`` the
only instrumentation is two one-shot hooks that note the first
``Simulation.step`` and the start of ``MetricsCollector.collect`` and then
put the originals back.  With ``--trace`` every layer function in
:func:`layers.hooks` records spans, which are written to ``OUT`` at the end.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _one_shot(cls, attr, marks, key):
    """Note when ``cls.attr`` is first called, then restore it."""
    original = cls.__dict__[attr]

    def first(*args, **kwargs):
        marks[key] = time.monotonic()
        setattr(cls, attr, original)
        return original(*args, **kwargs)

    setattr(cls, attr, first)


def model_metrics(result) -> dict:
    """The simulated outcome: deterministic for a given input."""
    jobs = [j for app in result.apps for j in app.jobs]
    failed = sum(
        1 for j in jobs
        if not j.finished
        or any(t.cancelled and t.finished_at is None for t in j.all_tasks)
    )
    per_app = []
    for app in result.apps:
        fracs = [j.local_input_fraction for j in app.jobs
                 if j.local_input_fraction is not None]
        per_app.append(sum(fracs) / len(fracs) if fracs else 0.0)
    m = result.metrics
    return {
        "jobs": len(jobs),
        "unfinished": m.unfinished_jobs,
        "jobs_failed": failed,
        "locality_pct": 100.0 * m.locality_mean,
        "app_locality_pct": [100.0 * f for f in per_app],
        "avg_jct_s": m.avg_jct,
        "makespan_s": m.makespan,
        "tasks": sum(1 for j in jobs for t in j.all_tasks if t.finished_at is not None)
        + (result.faults.failed_attempts if result.faults else 0),
    }


def main(argv) -> int:
    workload, arrival_seed, spawned_at = argv[0], int(argv[1]), float(argv[2])
    trace_out = Path(argv[4]) if len(argv) > 4 and argv[3] == "--trace" else None
    marks = {}

    import repro.cli  # noqa: F401  (the entry point a user starts)
    from repro.experiments.runner import run_experiment
    from repro.metrics.collector import MetricsCollector
    from repro.simulation.engine import Simulation

    import workloads

    if trace_out is not None:
        import layers
        import spans

        counts = layers.Counts()
        rec = spans.SpanRecorder(run_id=f"{workload}-{arrival_seed}-{spawned_at:.6f}")
        hooks = layers.hooks(counts)
        originals = [(h.cls, h.attr, h.cls.__dict__.get(h.attr)) for h in hooks]
        undo = spans.install(hooks, rec)
        gc_clock = layers.GcClock()
        gc.callbacks.append(gc_clock)
    else:
        _one_shot(Simulation, "step", marks, "first_step")
        _one_shot(MetricsCollector, "collect", marks, "loop_end")

    config, trace, plan = workloads.build_inputs(workload, arrival_seed)
    result = run_experiment(config, trace=trace, fault_plan=plan)
    collected = time.monotonic()

    out = {
        "wall_s": collected - spawned_at,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model": model_metrics(result),
    }
    if trace_out is None:
        out["setup_s"] = marks["first_step"] - spawned_at
        out["loop_s"] = marks["loop_end"] - marks["first_step"]
    else:
        gc.callbacks.remove(gc_clock)
        spans.uninstall(undo)
        out["restored"] = all(cls.__dict__.get(attr) is fn for cls, attr, fn in originals)
        out["layers"] = layers.layer_metrics(rec, counts, gc_clock, result)
        rec.write(trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
