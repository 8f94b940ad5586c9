"""Workload generators for the paper's three applications.

Each :class:`WorkloadProfile` captures the characteristics §VI-A2 describes:

* **PageRank** — graph algorithm on a slice of the 32 GB Wiki dump; 1 GB
  input per job; *iterative* (multiple shuffle rounds), so network-heavy and
  least sensitive to input-stage speedups (§VI-B).
* **WordCount** — 4–8 GB inputs; intermediate data is tiny relative to the
  input ("network-light"); one map stage plus a very short reduce.
* **Sort** — 1–8 GB inputs; shuffle volume equals input volume; compute- and
  network-heavy.

We do not process real bytes: a job's behaviour is fully determined by its
block count, per-task CPU demand and shuffle volume, which the profiles
synthesise with deterministic, seeded noise.  Input files are drawn from a
per-workload *pool* (each job reads "a subset of the dump"), so popular
files create the contended hot executors §IV-A argues about.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import IdFactory
from repro.common.units import GB, MB
from repro.hdfs.filesystem import HDFS
from repro.hdfs.namenode import FileEntry
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind

__all__ = [
    "WorkloadProfile",
    "PAGERANK",
    "WORDCOUNT",
    "SORT",
    "profile_by_name",
    "JobFactory",
]


@dataclass(frozen=True)
class WorkloadProfile:
    """Static description of one workload family.

    ``cpu_secs_per_mb_*`` are the deterministic CPU demand of map/reduce
    work per MB processed; per-task noise is multiplicative lognormal with
    ``cpu_noise_sigma``.  ``shuffle_fraction`` is bytes of intermediate data
    produced per input byte *per iteration*; ``iterations`` is the number of
    shuffle rounds after the input stage (PageRank > 1).
    ``reduce_fanin`` sets the reduce-task count as a fraction of the map-task
    count (Spark defaults to fewer reducers than mappers).
    """

    name: str
    input_size_min: float
    input_size_max: float
    shuffle_fraction: float
    iterations: int
    cpu_secs_per_mb_map: float
    cpu_secs_per_mb_reduce: float
    reduce_fanin: float = 0.5
    cpu_noise_sigma: float = 0.2

    def __post_init__(self) -> None:
        if self.input_size_min <= 0 or self.input_size_max < self.input_size_min:
            raise ConfigurationError(f"{self.name}: invalid input size range")
        if self.iterations < 1:
            raise ConfigurationError(f"{self.name}: iterations must be >= 1")
        if not (0 < self.reduce_fanin <= 1):
            raise ConfigurationError(f"{self.name}: reduce_fanin must be in (0, 1]")
        if self.shuffle_fraction < 0:
            raise ConfigurationError(f"{self.name}: shuffle_fraction must be >= 0")


#: Graph workload: fixed 1 GB inputs, 5 shuffle iterations, shuffle ≈ input.
PAGERANK = WorkloadProfile(
    name="pagerank",
    input_size_min=1 * GB,
    input_size_max=1 * GB,
    shuffle_fraction=1.0,
    iterations=5,
    cpu_secs_per_mb_map=0.020,
    cpu_secs_per_mb_reduce=0.020,
)

#: Aggregation workload: 4–8 GB inputs, intermediate data ~2% of input.
WORDCOUNT = WorkloadProfile(
    name="wordcount",
    input_size_min=4 * GB,
    input_size_max=8 * GB,
    shuffle_fraction=0.02,
    iterations=1,
    cpu_secs_per_mb_map=0.015,
    cpu_secs_per_mb_reduce=0.010,
)

#: Sort: 1–8 GB inputs, shuffle volume equals input volume.
SORT = WorkloadProfile(
    name="sort",
    input_size_min=1 * GB,
    input_size_max=8 * GB,
    shuffle_fraction=1.0,
    iterations=1,
    cpu_secs_per_mb_map=0.025,
    cpu_secs_per_mb_reduce=0.025,
)

_PROFILES: Dict[str, WorkloadProfile] = {
    p.name: p for p in (PAGERANK, WORDCOUNT, SORT)
}


def profile_by_name(name: str) -> WorkloadProfile:
    """Look up a built-in profile ("pagerank", "wordcount", "sort")."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {sorted(_PROFILES)}"
        ) from None


class JobFactory:
    """Builds jobs of a given profile against a given HDFS instance.

    Input files are drawn from a pool of ``pool_size`` pre-ingested files per
    profile, sampled with a Zipf-like distribution (exponent
    ``popularity_skew``) so some datasets are hot — the contention scenario
    that makes inter-application coordination matter.  ``pool_size=None``
    (default) sizes the pool at half the job count.
    """

    def __init__(
        self,
        hdfs: HDFS,
        rng: np.random.Generator,
        *,
        pool_size: Optional[int] = None,
        popularity_skew: float = 1.2,
    ):
        if pool_size is not None and pool_size < 1:
            raise ConfigurationError(f"pool_size must be >= 1, got {pool_size}")
        self.hdfs = hdfs
        self.rng = rng
        self.pool_size = pool_size
        self.popularity_skew = popularity_skew
        self._ids = IdFactory(width=4)
        self._pools: Dict[str, List[FileEntry]] = {}

    # ------------------------------------------------------------------- pools
    def _pool(self, profile: WorkloadProfile, expected_jobs: int) -> List[FileEntry]:
        pool = self._pools.get(profile.name)
        if pool is not None:
            return pool
        size = self.pool_size or max(1, expected_jobs // 2)
        pool = []
        for i in range(size):
            file_size = float(
                self.rng.uniform(profile.input_size_min, profile.input_size_max)
            )
            path = f"/data/{profile.name}/part-{i:04d}"
            # Popularity rank follows the pool index (rank 0 hottest); the
            # Scarlett placement policy consumes this as a replica multiplier.
            popularity = (size / (i + 1.0)) ** 0.5 if size > 1 else 1.0
            pool.append(self.hdfs.ingest(path, file_size, popularity=popularity))
        self._pools[profile.name] = pool
        return pool

    def _draw_file(self, profile: WorkloadProfile, expected_jobs: int) -> FileEntry:
        pool = self._pool(profile, expected_jobs)
        ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
        weights = ranks**-self.popularity_skew
        weights /= weights.sum()
        return pool[int(self.rng.choice(len(pool), p=weights))]

    # -------------------------------------------------------------------- jobs
    def build_job(
        self,
        app_id: str,
        profile: WorkloadProfile,
        *,
        expected_jobs: int = 30,
        file_entry: Optional[FileEntry] = None,
        input_fraction: Optional[float] = None,
    ) -> Job:
        """Create one job: input stage over a pooled file + shuffle rounds.

        ``input_fraction`` < 1 builds a KMN-style approximation job ([10])
        that only needs that fraction of its input blocks (rounded up,
        minimum one) — the driver cancels the surplus once the quorum lands.
        """
        if input_fraction is not None and not (0.0 < input_fraction <= 1.0):
            raise ConfigurationError(
                f"input_fraction must be in (0, 1], got {input_fraction}"
            )
        entry = file_entry or self._draw_file(profile, expected_jobs)
        job_id = self._ids.next(f"job-{app_id}")
        input_tasks: List[Task] = []
        for block in entry.blocks:
            cpu = (
                profile.cpu_secs_per_mb_map
                * (block.size / MB)
                * float(self.rng.lognormal(0.0, profile.cpu_noise_sigma))
            )
            input_tasks.append(
                Task(
                    f"{job_id}/s0/t{len(input_tasks):04d}",
                    job_id=job_id,
                    app_id=app_id,
                    stage_index=0,
                    kind=TaskKind.INPUT,
                    cpu_time=cpu,
                    block=block,
                )
            )
        stages = [Stage(0, input_tasks)]
        num_maps = len(input_tasks)
        num_reduces = max(1, int(round(num_maps * profile.reduce_fanin)))
        shuffle_total = entry.size * profile.shuffle_fraction
        for it in range(1, profile.iterations + 1):
            per_task_bytes = shuffle_total / num_reduces
            tasks = []
            for t in range(num_reduces):
                cpu = (
                    profile.cpu_secs_per_mb_reduce
                    * (per_task_bytes / MB)
                    * float(self.rng.lognormal(0.0, profile.cpu_noise_sigma))
                )
                tasks.append(
                    Task(
                        f"{job_id}/s{it}/t{t:04d}",
                        job_id=job_id,
                        app_id=app_id,
                        stage_index=it,
                        kind=TaskKind.SHUFFLE,
                        cpu_time=cpu,
                        shuffle_bytes=per_task_bytes,
                    )
                )
            stages.append(Stage(it, tasks))
        required = None
        if input_fraction is not None and input_fraction < 1.0:
            required = max(1, math.ceil(input_fraction * num_maps))
        return Job(
            job_id, app_id, stages, workload=profile.name, required_inputs=required
        )
