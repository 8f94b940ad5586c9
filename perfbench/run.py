"""End-to-end benchmark of the Custody simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-wordcount --seed 0 --seconds 40 --trace 0

Every simulation runs in a fresh, single-threaded Python process
(``child.py``), one at a time.  With ``--trace 0`` a run simulates each of
the seed's submission schedules once, then repeats them in turn while
``--seconds`` allows (at least one repeat), and reports the end-to-end
metrics.  With ``--trace 1`` it simulates the seed's first schedule once
untraced and once with every layer function wrapped in spans, and reports
the per-layer metrics; the spans are written under ``.perfbench/``.

Correctness gate (any failure prints ``"correct": false`` and exits 1):

* every job finishes; on the fault-free workloads none has an abandoned task;
* repeats of one schedule give bit-identical simulated metrics;
* the traced run's simulated metrics equal the untraced run's, and the
  wrapped functions are restored afterwards.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import FAULTED, WORKLOADS, arrival_seeds  # noqa: E402

CHILD_TIMEOUT_S = 150.0
#: Single-threaded children: no BLAS/OpenMP worker pools.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


class GateError(Exception):
    """A simulated output failed the correctness gate."""


def spawn(workload: str, arrival_seed: int, tally: list, trace_out: Path = None) -> dict:
    """Run one simulation in a fresh process and return its JSON result."""
    tally.append(arrival_seed)
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(arrival_seed)]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spawned_at = time.monotonic()
    cmd.append(repr(spawned_at))
    if trace_out is not None:
        cmd += ["--trace", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise GateError(f"{workload} schedule {arrival_seed}: child exited "
                        f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_outcome(workload: str, model: dict) -> None:
    if model["unfinished"]:
        raise GateError(f"{workload}: {model['unfinished']} jobs unfinished")
    if workload not in FAULTED and model["jobs_failed"]:
        raise GateError(f"{workload}: {model['jobs_failed']} jobs failed")


def measure(workload: str, seed: int, seconds: float, tally: list):
    """Untraced runs: each schedule once, then repeats while time allows."""
    schedules = arrival_seeds(seed)
    runs = {s: [] for s in schedules}
    started, longest, n = time.monotonic(), 0.0, 0
    while n <= len(schedules) or time.monotonic() - started + longest <= seconds:
        s = schedules[n % len(schedules)]
        result = spawn(workload, s, tally)
        check_outcome(workload, result["model"])
        if runs[s] and runs[s][0]["model"] != result["model"]:
            raise GateError(f"{workload} schedule {s}: repeat differs")
        runs[s].append(result)
        longest, n = max(longest, result["wall_s"]), n + 1
    return runs


def end_to_end(runs: dict) -> dict:
    """Per schedule, the median over its repeats; then the mean over schedules
    (simulated metrics, wall time) or the pooled rate (tasks per second)."""
    everything = [r for rs in runs.values() for r in rs]
    per = [{k: statistics.median(r[k] for r in rs) for k in ("wall_s", "loop_s")}
           | {"model": rs[0]["model"]} for rs in runs.values()]

    def mean(key):
        return statistics.fmean(p["model"][key] for p in per)

    return {
        "wall_s": statistics.fmean(p["wall_s"] for p in per),
        "setup_s": statistics.median(r["setup_s"] for r in everything),
        "tasks_per_s": (sum(p["model"]["tasks"] for p in per)
                        / sum(p["loop_s"] for p in per)),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in everything),
        "locality_pct": mean("locality_pct"),
        # Alg. 1's max-min objective, on each application's locality pooled
        # over the schedules.
        "min_app_locality_pct": min(
            statistics.fmean(app) for app in zip(*(p["model"]["app_locality_pct"] for p in per))
        ),
        "avg_jct_s": mean("avg_jct_s"),
        "makespan_s": mean("makespan_s"),
        "jobs_ok_pct": 100.0 * (1.0 - sum(p["model"]["jobs_failed"] for p in per)
                                / sum(p["model"]["jobs"] for p in per)),
    }


def traced(workload: str, seed: int, tally: list):
    """One untraced and one traced run of the seed's first schedule."""
    schedule = arrival_seeds(seed)[0]
    plain = spawn(workload, schedule, tally)
    check_outcome(workload, plain["model"])
    out = ROOT / ".perfbench" / f"spans-{workload}.npz"
    spanned = spawn(workload, schedule, tally, trace_out=out)
    if plain["model"] != spanned["model"]:
        raise GateError(f"{workload}: tracing changed the simulated metrics")
    if not spanned["restored"]:
        raise GateError(f"{workload}: wrapped functions were not restored")
    layers = dict(spanned["layers"])
    layers["trace.overhead_frac"] = spanned["wall_s"] / plain["wall_s"] - 1.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no simulator sources under {ROOT / 'src'}\n")
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    tally: list = []
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, tally)
        else:
            metrics = end_to_end(measure(args.workload, args.seed, args.seconds, tally))
        if set(metrics) != set(units):
            raise GateError(f"metrics {sorted(set(metrics) ^ set(units))} "
                            "differ from BENCHMARK.json")
        correct = True
    except (GateError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        correct, metrics = False, {}
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:34s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(tally), 1),
        "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
