"""Metrics: locality, timings and report rendering.

Everything the paper's figures plot is computed here from finished workload
objects (and optionally the timeline):

* Fig. 7 — per-job percentage of local input tasks (mean ± std);
* Fig. 8 — average job completion time;
* Fig. 9 — average input (map) stage completion time;
* Fig. 10 — average scheduler delay of tasks;
* plus local-*job* fraction (the max-min objective) and fairness indices.
"""

from repro.metrics.collector import ExperimentMetrics, MetricsCollector
from repro.metrics.locality import (
    local_job_fraction,
    locality_gain,
    per_job_locality,
)
from repro.metrics.timings import (
    average_completion_time,
    average_input_stage_time,
    average_scheduler_delay,
    makespan,
)
from repro.metrics.report import comparison_table, format_table
from repro.metrics.utilization import UtilizationReport, analyze_utilization

__all__ = [
    "ExperimentMetrics",
    "MetricsCollector",
    "UtilizationReport",
    "analyze_utilization",
    "average_completion_time",
    "average_input_stage_time",
    "average_scheduler_delay",
    "comparison_table",
    "format_table",
    "local_job_fraction",
    "locality_gain",
    "makespan",
    "per_job_locality",
]
