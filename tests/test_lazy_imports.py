"""The exact solvers' heavy dependencies stay out of simulation runs.

``core/flownetwork.py`` and ``core/matching.py`` import networkx and scipy
inside the functions that use them; no simulation path calls those, and the
imports would otherwise be most of ``import repro.cli``.  The check runs in
a fresh interpreter so other tests' imports cannot mask a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import repro.cli
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
result = run_experiment(ExperimentConfig(
    manager="custody", num_nodes=10, num_apps=2, jobs_per_app=2, seed=1,
))
assert result.metrics.unfinished_jobs == 0
print(json.dumps(sorted(
    m for m in ("networkx", "scipy.optimize", "scipy.sparse") if m in sys.modules
)))
"""


def test_cli_and_custody_run_skip_solver_imports():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []
