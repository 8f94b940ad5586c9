"""Workload profiles and the job factory."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import GB
from repro.workload.generators import (
    PAGERANK,
    SORT,
    WORDCOUNT,
    JobFactory,
    WorkloadProfile,
    profile_by_name,
)
from repro.workload.task import TaskKind


class TestProfiles:
    def test_paper_input_sizes(self):
        assert PAGERANK.input_size_min == PAGERANK.input_size_max == 1 * GB
        assert WORDCOUNT.input_size_min == 4 * GB
        assert WORDCOUNT.input_size_max == 8 * GB
        assert SORT.input_size_min == 1 * GB
        assert SORT.input_size_max == 8 * GB

    def test_pagerank_is_iterative(self):
        assert PAGERANK.iterations > 1
        assert WORDCOUNT.iterations == 1
        assert SORT.iterations == 1

    def test_wordcount_is_network_light(self):
        assert WORDCOUNT.shuffle_fraction < 0.1
        assert SORT.shuffle_fraction == 1.0

    def test_profile_by_name(self):
        assert profile_by_name("pagerank") is PAGERANK
        with pytest.raises(ConfigurationError):
            profile_by_name("bogus")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_size_min": 0, "input_size_max": 1},
            {"input_size_min": 2, "input_size_max": 1},
            {"iterations": 0},
            {"reduce_fanin": 0.0},
            {"shuffle_fraction": -0.1},
        ],
    )
    def test_invalid_profile(self, kwargs):
        base = dict(
            name="x", input_size_min=1.0, input_size_max=2.0,
            shuffle_fraction=1.0, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            WorkloadProfile(**base)


class TestJobFactory:
    @pytest.fixture
    def factory(self, small_hdfs):
        return JobFactory(small_hdfs, np.random.default_rng(3), pool_size=4)

    @pytest.mark.parametrize("pool_size", [0, -1])
    def test_non_positive_pool_size_rejected(self, small_hdfs, pool_size):
        with pytest.raises(ConfigurationError, match="pool_size"):
            JobFactory(small_hdfs, np.random.default_rng(3), pool_size=pool_size)

    def test_job_structure(self, factory):
        profile = WorkloadProfile(
            name="mini", input_size_min=30 * 2**20, input_size_max=30 * 2**20,
            shuffle_fraction=1.0, iterations=2,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        job = factory.build_job("app-0", profile)
        assert len(job.stages) == 3  # input + 2 shuffle rounds
        assert job.input_stage.is_input_stage
        assert job.num_input_tasks == 3  # 30 MB / 10 MB blocks
        for stage in job.stages[1:]:
            assert all(t.kind is TaskKind.SHUFFLE for t in stage.tasks)

    def test_one_input_task_per_block(self, factory):
        profile = WorkloadProfile(
            name="mini", input_size_min=25 * 2**20, input_size_max=25 * 2**20,
            shuffle_fraction=0.1, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        job = factory.build_job("app-0", profile)
        blocks = [t.block.block_id for t in job.input_tasks]
        assert len(blocks) == len(set(blocks)) == 3

    def test_shuffle_volume_respects_fraction(self, factory):
        profile = WorkloadProfile(
            name="mini", input_size_min=20 * 2**20, input_size_max=20 * 2**20,
            shuffle_fraction=0.5, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        job = factory.build_job("app-0", profile)
        total_shuffle = sum(t.shuffle_bytes for t in job.stages[1].tasks)
        assert total_shuffle == pytest.approx(10 * 2**20)

    def test_reduce_fanin(self, factory):
        profile = WorkloadProfile(
            name="mini", input_size_min=40 * 2**20, input_size_max=40 * 2**20,
            shuffle_fraction=1.0, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
            reduce_fanin=0.25,
        )
        job = factory.build_job("app-0", profile)
        assert job.num_input_tasks == 4
        assert len(job.stages[1]) == 1

    def test_pool_is_reused_across_jobs(self, factory, small_hdfs):
        profile = WorkloadProfile(
            name="mini", input_size_min=10 * 2**20, input_size_max=10 * 2**20,
            shuffle_fraction=0.1, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        for _ in range(10):
            factory.build_job("app-0", profile)
        # Only pool_size files were ever ingested for this profile.
        assert len(small_hdfs.namenode.files()) == 4

    def test_cpu_time_positive_and_noisy(self, factory):
        profile = WorkloadProfile(
            name="mini", input_size_min=30 * 2**20, input_size_max=30 * 2**20,
            shuffle_fraction=0.1, iterations=1,
            cpu_secs_per_mb_map=0.01, cpu_secs_per_mb_reduce=0.01,
        )
        job = factory.build_job("app-0", profile)
        cpu = [t.cpu_time for t in job.input_tasks]
        assert all(c > 0 for c in cpu)
        assert len(set(cpu)) > 1  # lognormal noise applied per task

    def test_deterministic_given_same_rng(self, small_hdfs, small_cluster):
        from repro.cluster.cluster import Cluster

        def build():
            cluster = Cluster(small_cluster.config)
            from repro.common.units import BlockSpec, MB
            from repro.hdfs.filesystem import HDFS

            hdfs = HDFS(
                cluster,
                block_spec=BlockSpec(size=10 * MB, replication=2),
                rng=np.random.default_rng(7),
            )
            factory = JobFactory(hdfs, np.random.default_rng(3), pool_size=2)
            job = factory.build_job("app-0", WORDCOUNT)
            return [t.cpu_time for t in job.input_tasks]

        assert build() == build()
