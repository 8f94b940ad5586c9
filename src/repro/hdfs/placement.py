"""Replica placement policies.

A policy answers two questions per block: *how many* replicas (usually the
configured replication level) and *on which nodes*.  Three policies:

* :class:`RandomPlacement` — uniform without replacement; the paper's model
  ("each data block typically has three replicas randomly distributed",
  §II) and the default for all headline experiments.
* :class:`RackAwarePlacement` — HDFS's default: first replica on a random
  node, second on a different rack, third on the second's rack.
* :class:`PopularityAwarePlacement` — Scarlett-style ([9], §VII): the replica
  count grows with the file's access popularity, eliminating hot spots.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.cluster.topology import Topology
from repro.hdfs.blocks import Block

__all__ = [
    "PlacementPolicy",
    "RandomPlacement",
    "RackAwarePlacement",
    "PopularityAwarePlacement",
]


class PlacementPolicy(abc.ABC):
    """Strategy deciding replica count and replica locations for a block."""

    def replicas_for(self, replication: int, popularity: float) -> int:
        """Number of replicas to store; default: the configured level."""
        return replication

    @abc.abstractmethod
    def choose_nodes(
        self,
        block: Block,
        count: int,
        node_ids: Sequence[str],
        topology: Optional[Topology],
        rng: np.random.Generator,
    ) -> List[str]:
        """Pick ``count`` distinct node ids for the block's replicas."""

    @staticmethod
    def _check(count: int, node_ids: Sequence[str]) -> int:
        # Popularity placement can ask for more replicas than there are nodes.
        if not node_ids:
            raise ConfigurationError("no nodes available for placement")
        return min(count, len(node_ids))


class RandomPlacement(PlacementPolicy):
    """Uniformly random distinct nodes — the paper's storage model."""

    def choose_nodes(
        self,
        block: Block,
        count: int,
        node_ids: Sequence[str],
        topology: Optional[Topology],
        rng: np.random.Generator,
    ) -> List[str]:
        count = self._check(count, node_ids)
        picks = rng.choice(len(node_ids), size=count, replace=False)
        return [node_ids[int(i)] for i in picks]


class RackAwarePlacement(PlacementPolicy):
    """HDFS default: replica 1 anywhere, replica 2 off-rack, replica 3 with 2.

    Additional replicas (count > 3) fall back to uniform choice among nodes
    not yet holding the block.  Degrades gracefully on single-rack clusters.
    """

    def choose_nodes(
        self,
        block: Block,
        count: int,
        node_ids: Sequence[str],
        topology: Optional[Topology],
        rng: np.random.Generator,
    ) -> List[str]:
        count = self._check(count, node_ids)
        if topology is None:
            raise ConfigurationError("RackAwarePlacement requires a topology")
        chosen: List[str] = []
        first = node_ids[int(rng.integers(len(node_ids)))]
        chosen.append(first)
        if count >= 2:
            remote = [n for n in topology.nodes_outside(topology.rack_of(first)) if n in set(node_ids)]
            if remote:
                second = remote[int(rng.integers(len(remote)))]
            else:  # single rack: any other node
                others = [n for n in node_ids if n != first]
                if not others:
                    return chosen
                second = others[int(rng.integers(len(others)))]
            chosen.append(second)
        if count >= 3:
            same_as_second = [
                n
                for n in topology.nodes_in(topology.rack_of(chosen[1]))
                if n not in chosen and n in set(node_ids)
            ]
            pool = same_as_second or [n for n in node_ids if n not in chosen]
            if pool:
                chosen.append(pool[int(rng.integers(len(pool)))])
        while len(chosen) < count:
            pool = [n for n in node_ids if n not in chosen]
            if not pool:
                break
            chosen.append(pool[int(rng.integers(len(pool)))])
        return chosen


class PopularityAwarePlacement(RandomPlacement):
    """Scarlett-style popularity-proportional replication.

    ``replicas = clip(round(base * popularity), min_replicas, max_replicas)``
    where ``popularity`` is the expected concurrent-access count supplied by
    the workload (1.0 = accessed by one job at a time).  Placement itself is
    uniform random, as in Scarlett's storage-constrained mode.
    """

    def __init__(self, min_replicas: int = 1, max_replicas: int = 10):
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ConfigurationError(
                f"invalid replica bounds [{min_replicas}, {max_replicas}]"
            )
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas

    def replicas_for(self, replication: int, popularity: float) -> int:
        scaled = int(round(replication * max(popularity, 0.0)))
        return int(np.clip(scaled, self.min_replicas, self.max_replicas))
