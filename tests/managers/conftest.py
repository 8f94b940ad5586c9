"""Manager test harness: a controlled mini-cluster with pluggable managers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.common.units import BlockSpec
from repro.hdfs.filesystem import HDFS
from repro.hdfs.placement import PlacementPolicy
from repro.network.fabric import NetworkFabric
from repro.scheduling.driver import ApplicationDriver
from repro.scheduling.policies import DelayScheduler
from repro.simulation.engine import Simulation
from repro.workload.application import Application
from repro.workload.job import Job, Stage
from repro.workload.task import Task, TaskKind


class OneBlockPerNode(PlacementPolicy):
    """Block k lives only on worker k mod N."""

    def choose_nodes(self, block, count, node_ids, topology, rng):
        return [node_ids[block.index % len(node_ids)]]


class ManagerHarness:
    """8 workers x 1 executor x 1 slot, blocks pinned one-per-node."""

    def __init__(self, num_nodes=8, slots=1, delay_wait=0.4):
        self.sim = Simulation()
        self.fabric = NetworkFabric(self.sim)
        self.cluster = Cluster(
            ClusterConfig(
                num_nodes=num_nodes,
                cores_per_node=max(2, slots),
                executors_per_node=1,
                executor_slots=slots,
                disk_bandwidth=1e12,
                uplink=1.0,
                downlink=1.0,
                nodes_per_rack=num_nodes,
            ),
            fabric=self.fabric,
        )
        self.hdfs = HDFS(
            self.cluster,
            block_spec=BlockSpec(size=1.0, replication=1),
            placement=OneBlockPerNode(),
            rng=np.random.default_rng(0),
        )
        self.entry = self.hdfs.ingest("/data/f", float(num_nodes))
        self.delay_wait = delay_wait
        self.drivers = {}
        self._job_seq = 0

    def add_app(self, manager, app_id):
        app = Application(app_id)
        driver = ApplicationDriver(
            self.sim, app, self.cluster, self.hdfs, self.fabric,
            DelayScheduler(wait=self.delay_wait),
        )
        self.drivers[app_id] = driver
        manager.register_driver(driver)
        return driver

    def flush(self):
        """Step the current instant until no coalesced allocation round is
        pending, so the grants its triggers asked for have landed."""
        managers = {d.manager for d in self.drivers.values()} - {None}
        while any(m.round_pending for m in managers) and self.sim.step():
            pass

    def make_job(self, app_id, block_indices, cpu=0.5):
        self._job_seq += 1
        job_id = f"j{self._job_seq:03d}"
        tasks = [
            Task(
                f"{job_id}/t{i}", job_id=job_id, app_id=app_id, stage_index=0,
                kind=TaskKind.INPUT, cpu_time=cpu, block=self.entry.blocks[b],
            )
            for i, b in enumerate(block_indices)
        ]
        return Job(job_id, app_id, [Stage(0, tasks)])


@pytest.fixture
def harness():
    return ManagerHarness()
