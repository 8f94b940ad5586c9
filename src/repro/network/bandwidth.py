"""Max-min fair rate allocation via progressive filling.

Pure functions, no simulator state: given a set of flows (each identified by
its source and destination node) and per-node uplink/downlink capacities,
compute each flow's max-min fair rate.  A flow traverses exactly two
"links" — its source's uplink and its destination's downlink (the core
fabric is assumed non-blocking, which matches both the paper's Linode
virtual network and modern full-bisection datacenter fabrics).

Algorithm (progressive filling): repeatedly find the most-congested link
(the one whose remaining capacity divided by its unfrozen flow count is
smallest), freeze all its unfrozen flows at that fair share, subtract what
they consume everywhere, and repeat.  :func:`maxmin_rates` does this with
numpy rescans of every link's share; it is the test oracle and the
``reference`` network engine.  :func:`maxmin_rates_heap`, the kernel of the
incremental :class:`~repro.network.rate_engine.RateEngine`, keeps the shares
in a heap — O(F + L log L) for F flows and L links — and returns the same
rates bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError

__all__ = ["LinkCapacities", "maxmin_rates", "maxmin_rates_heap"]


@dataclass
class LinkCapacities:
    """Per-node uplink/downlink capacities in bytes/second."""

    uplink: Dict[str, float] = field(default_factory=dict)
    downlink: Dict[str, float] = field(default_factory=dict)

    def add_node(self, node_id: str, uplink: float, downlink: float) -> None:
        """Register a node's NIC capacities."""
        if not (uplink > 0 and downlink > 0):  # also rejects NaN
            raise ConfigurationError(
                f"node {node_id!r}: NIC capacities must be positive "
                f"(got up={uplink}, down={downlink})"
            )
        self.uplink[node_id] = float(uplink)
        self.downlink[node_id] = float(downlink)

    def __contains__(self, node_id: str) -> bool:
        # Both directions must be registered: the maps can drift apart only
        # through direct mutation, but membership must still mean "safe to
        # route a flow through this node in either direction".
        return node_id in self.uplink and node_id in self.downlink


def maxmin_rates(
    flows: Sequence[Tuple[str, str]],
    capacities: LinkCapacities,
) -> List[float]:
    """Max-min fair rates (bytes/s) for ``flows`` = [(src_node, dst_node), ...].

    Flows whose source equals their destination are loopback (a remote read
    that happens to hit a local replica holder through the network path is
    never modelled this way — callers treat those as local reads) and get an
    effectively infinite rate; they are included for interface uniformity.

    Raises :class:`ConfigurationError` if a flow references an unregistered
    node.
    """
    n = len(flows)
    if n == 0:
        return []

    # Build the link incidence: link index -> capacity; flow -> (up_link, down_link).
    link_index: Dict[Tuple[str, str], int] = {}
    link_caps: List[float] = []

    def _link(kind: str, node: str) -> int:
        key = (kind, node)
        idx = link_index.get(key)
        if idx is None:
            caps = capacities.uplink if kind == "up" else capacities.downlink
            if node not in caps:
                raise ConfigurationError(f"flow references unregistered node {node!r}")
            idx = len(link_caps)
            link_index[key] = idx
            link_caps.append(caps[node])
        return idx

    flow_links = np.empty((n, 2), dtype=np.int64)
    loopback = np.zeros(n, dtype=bool)
    for i, (src, dst) in enumerate(flows):
        if src == dst:
            loopback[i] = True
            # Still validate the node exists; assign both to its uplink so the
            # arrays stay rectangular, but the flow is frozen immediately below.
            idx = _link("up", src)
            flow_links[i, 0] = idx
            flow_links[i, 1] = idx
        else:
            flow_links[i, 0] = _link("up", src)
            flow_links[i, 1] = _link("down", dst)

    caps = np.asarray(link_caps, dtype=np.float64)
    rates = np.zeros(n, dtype=np.float64)
    frozen = loopback.copy()
    rates[loopback] = np.inf

    remaining = caps.copy()
    while not frozen.all():
        active = ~frozen
        # Flows per link among the active set (each non-loopback flow touches
        # its up and down link once; a flow may touch the same link twice only
        # in the loopback case, already frozen).
        counts = np.bincount(flow_links[active].ravel(), minlength=len(caps)).astype(
            np.float64
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(counts > 0, remaining / counts, np.inf)
        bottleneck = int(np.argmin(shares))
        share = shares[bottleneck]
        if not np.isfinite(share):
            break  # no active flow touches any link (cannot happen in practice)
        # Freeze every active flow crossing the bottleneck at `share`.
        crosses = active & (
            (flow_links[:, 0] == bottleneck) | (flow_links[:, 1] == bottleneck)
        )
        rates[crosses] = share
        frozen |= crosses
        # Subtract their consumption from both links they traverse.
        consumed = np.zeros_like(remaining)
        np.add.at(consumed, flow_links[crosses, 0], share)
        np.add.at(consumed, flow_links[crosses, 1], share)
        # Loopback-frozen rows never reach here; double-count is impossible.
        remaining = np.maximum(remaining - consumed, 0.0)

    return rates.tolist()


def maxmin_rates_heap(
    flows: Sequence[Tuple[str, str]],
    capacities: LinkCapacities,
) -> List[float]:
    """:func:`maxmin_rates` with a heap of link shares instead of rescans.

    Same contract, same rates bit for bit.  Exactness rests on replaying
    the reference's arithmetic and its choices:

    * links are numbered in first-appearance order over ``flows`` (a
      loopback flow still registers its source's uplink), and ties on the
      share pop the lowest link number — exactly ``np.argmin``'s pick;
    * a share is ``remaining / count`` with an integral count;
    * a freeze of k flows at ``share`` charges each touched link ``share``
      added k times from ``0.0`` (``np.add.at``'s sum, which ``k * share``
      is not), then clamps the link's remaining capacity at ``0.0``;
    * filling stops at an infinite share, leaving the rest rated ``0.0``.

    Heap entries are ``(share, link)``; an entry is live while it equals
    the link's current share and the link still carries unfrozen flows.
    """
    n = len(flows)
    if n == 0:
        return []
    uplink = capacities.uplink
    downlink = capacities.downlink
    up_index: Dict[str, int] = {}
    down_index: Dict[str, int] = {}
    remaining: List[float] = []
    members: List[List[int]] = []
    ends: List[Tuple[int, int]] = [(0, 0)] * n
    rates = [0.0] * n
    frozen = [False] * n
    for i, (src, dst) in enumerate(flows):
        up = up_index.get(src)
        if up is None:
            if src not in uplink:
                raise ConfigurationError(f"flow references unregistered node {src!r}")
            up = up_index[src] = len(remaining)
            remaining.append(float(uplink[src]))
            members.append([])
        if src == dst:
            rates[i] = math.inf
            frozen[i] = True
            continue
        down = down_index.get(dst)
        if down is None:
            if dst not in downlink:
                raise ConfigurationError(f"flow references unregistered node {dst!r}")
            down = down_index[dst] = len(remaining)
            remaining.append(float(downlink[dst]))
            members.append([])
        members[up].append(i)
        members[down].append(i)
        ends[i] = (up, down)

    counts = [len(m) for m in members]
    shares = [r / c if c else math.inf for r, c in zip(remaining, counts)]
    heap = [(share, link) for link, share in enumerate(shares) if counts[link]]
    heapq.heapify(heap)
    while heap:
        share, link = heapq.heappop(heap)
        if not counts[link] or share != shares[link]:
            continue  # stale entry
        if share == math.inf:
            break
        # Freeze the bottleneck's unfrozen flows; tally the other link of
        # each (the bottleneck itself is retired outright).
        touched: Dict[int, int] = {}
        for i in members[link]:
            if frozen[i]:
                continue
            frozen[i] = True
            rates[i] = share
            up, down = ends[i]
            other = down if up == link else up
            touched[other] = touched.get(other, 0) + 1
        counts[link] = 0
        for other, k in touched.items():
            consumed = 0.0
            for _ in range(k):
                consumed += share
            left = remaining[other] = max(remaining[other] - consumed, 0.0)
            count = counts[other] - k
            counts[other] = count
            if count:
                shares[other] = left / count
                heapq.heappush(heap, (shares[other], other))
    return rates
