"""Incremental max-min fair rate allocation.

:func:`repro.network.bandwidth.maxmin_rates` recomputes every flow's rate
from scratch on each call — O(links²) work per flow arrival/departure, the
dominant cost of large simulations.  :class:`RateEngine` maintains the
link/flow incidence *across* events and settles each batch of changes in
one of two ways.

**Fast path: the uplink-bound certificate.**  The paper's NICs receive at
20× the rate they send (40 vs 2 Gbps), so a downlink binds only when more
than 20 saturated senders feed it, and almost every flow's max-min rate is
its uplink's equal share, ``uplink_cap / flows_on_uplink``.  The engine is
*certified* while that holds everywhere: every flow sits at its uplink's
equal share and every downlink carries strictly less than its capacity,
with a relative headroom (:data:`_HEADROOM`).  While it is certified, a
batch re-rates only the flows on *dirty* uplinks (flow count or capacity
changed) at ``cap / n``, then re-checks every downlink that could have
changed: those of the re-rated flows and the dirty ones.  If each passes,
the engine is still certified and the batch is settled; otherwise the
proposal is discarded and the fallback runs.

Why the fast path is exact:

* A feasible allocation in which every flow sits at a saturated uplink's
  equal share is the unique max-min allocation: no flow can grow without
  taking from an equal-or-smaller flow on its uplink.
* Under the headroom, :func:`~repro.network.bandwidth.maxmin_rates_heap`
  itself returns exactly ``cap / n``.  A downlink's share stays strictly
  above the uplink shares of its unfrozen flows, so the heap never pops a
  downlink that still has unfrozen flows; hence no uplink is charged
  before it pops, and each pops with its initial share ``cap / n``.
* The argument needs the *whole* flow set certified — one downlink-bound
  flow anywhere in a component breaks it.  After every fallback the engine
  re-checks the links of the re-solved components only (O(component)) and
  keeps one failing *witness* link per component that fails; the fast path
  runs only while no witness is left.

**Fallback: component recompute.**  The link-flow graph decomposes into
connected components that share no links, and the max-min allocation of
one component is independent of all others.  A flow arrival or departure
can only change rates inside the component(s) touching its two links, so
the engine re-runs :func:`~repro.network.bandwidth.maxmin_rates_heap` on
that affected subgraph only ("dirty-link tracking"), with the flows in
their global arrival order; its rates equal ``maxmin_rates``'s bit for
bit, and an untouched component's stored rates are exactly what a full
recompute would re-derive for it (the water-filling arithmetic never
crosses component boundaries).

Either way, any number of add/remove operations fold into the dirty set
before a single :meth:`RateEngine.recompute` settles them all — the fabric
batches all flow changes of one simulated instant this way.  The
hypothesis property suite (``tests/property/test_rate_engine_equivalence.py``)
checks the result bit for bit against ``maxmin_rates`` after random
operation sequences that drive both paths.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities, maxmin_rates, maxmin_rates_heap
from repro.obs.metrics import NULL_METRICS, SIZE_BUCKETS

__all__ = ["RateEngine"]

#: A directed NIC link: ("up" | "down", node_id).
Link = Tuple[str, str]

#: A downlink passes the certificate while its load (summed exactly with
#: ``math.fsum``) stays below this fraction of its capacity.  The heap
#: kernel reaches a downlink's share through one float subtraction per flow
#: charged to it, each off by at most 2**-53 of the capacity, so a 1e-9
#: headroom keeps that share strictly above its flows' uplink shares on any
#: link with fewer than ~10**7 flows.  A real gap thinner than the headroom
#: only sends the batch to the exact fallback.
_HEADROOM = 1.0 - 1e-9


class RateEngine:
    """Incremental max-min rates over a mutable flow set.

    Parameters
    ----------
    capacities:
        The shared per-node NIC capacities (nodes may be registered after
        construction; each flow validates its endpoints on ``add_flow``).
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`; when tracing is enabled
        each recompute that re-rates flows emits a ``net.recompute``
        instant with their number (virtual-time facts only).
    metrics:
        Optional :class:`repro.obs.metrics.MetricsRegistry`; each recompute
        that re-rates at least one flow bumps ``net_rate_recomputes_total``
        and observes how many it re-rated in ``net_dirty_component_flows``.

    Flows are identified by caller-chosen hashable ids.  Loopback flows
    (``src == dst``) follow the reference contract: validated, rated
    ``inf``, and never consuming capacity.
    """

    def __init__(
        self,
        capacities: LinkCapacities,
        tracer: Optional[object] = None,
        metrics: Optional[object] = None,
    ):
        self.capacities = capacities
        self.tracer = tracer
        if metrics is None:
            metrics = NULL_METRICS
        self._m_recomputes = metrics.counter(
            "net_rate_recomputes_total",
            "Rate recomputes that re-rated flows, by allocator engine.",
            ("engine",),
        ).labels(engine="incremental")
        self._m_component = metrics.histogram(
            "net_dirty_component_flows",
            "Flows re-rated per recompute.",
            ("engine",),
            buckets=SIZE_BUCKETS,
        ).labels(engine="incremental")
        self._flows: Dict[Hashable, Tuple[str, str]] = {}
        self._seq: Dict[Hashable, int] = {}
        self._next_seq = 0
        self._flow_links: Dict[Hashable, Optional[Tuple[Link, Link]]] = {}
        self._link_flows: Dict[Link, Set[Hashable]] = {}
        self._rates: Dict[Hashable, float] = {}
        self._dirty: Set[Link] = set()
        self._fresh_loopbacks: Set[Hashable] = set()
        # One link failing the certificate per component that has one;
        # empty exactly when the whole engine is certified.
        self._witnesses: Set[Link] = set()

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    @property
    def dirty(self) -> bool:
        """True when flow changes are pending a :meth:`recompute`."""
        return bool(self._dirty or self._fresh_loopbacks)

    def rate_of(self, flow_id: Hashable) -> float:
        """Current allocated rate of one flow (recomputes if dirty)."""
        if self.dirty:
            self.recompute()
        return self._rates[flow_id]

    def rates(self) -> Dict[Hashable, float]:
        """All current rates, keyed by flow id (recomputes if dirty)."""
        if self.dirty:
            self.recompute()
        return dict(self._rates)

    def reference_rates(self) -> Dict[Hashable, float]:
        """Fresh full ``maxmin_rates`` recompute over the live flow set.

        Test/verification helper: the engine's :meth:`rates` must always
        equal this.
        """
        ordered = sorted(self._flows, key=self._seq.__getitem__)
        flows = [self._flows[fid] for fid in ordered]
        return dict(zip(ordered, maxmin_rates(flows, self.capacities)))

    # -------------------------------------------------------------- mutation
    def add_flow(self, flow_id: Hashable, src: str, dst: str) -> None:
        """Register a flow; its rate appears in the next :meth:`recompute`."""
        if flow_id in self._flows:
            raise ConfigurationError(f"flow {flow_id!r} is already registered")
        if src not in self.capacities.uplink:
            raise ConfigurationError(f"flow references unregistered node {src!r}")
        if src == dst:
            # Loopback: infinite rate, no capacity consumed, no incidence.
            self._flows[flow_id] = (src, dst)
            self._seq[flow_id] = self._next_seq
            self._next_seq += 1
            self._flow_links[flow_id] = None
            self._rates[flow_id] = float("inf")
            self._fresh_loopbacks.add(flow_id)
            return
        if dst not in self.capacities.downlink:
            raise ConfigurationError(f"flow references unregistered node {dst!r}")
        up: Link = ("up", src)
        down: Link = ("down", dst)
        self._flows[flow_id] = (src, dst)
        self._seq[flow_id] = self._next_seq
        self._next_seq += 1
        self._flow_links[flow_id] = (up, down)
        self._link_flows.setdefault(up, set()).add(flow_id)
        self._link_flows.setdefault(down, set()).add(flow_id)
        self._dirty.add(up)
        self._dirty.add(down)

    def touch_node(self, node_id: str) -> None:
        """Mark both of a node's links dirty (its capacity changed).

        Used by link-degradation faults: the next :meth:`recompute` picks up
        the new capacity from the shared :class:`LinkCapacities`, re-rating
        the node's uplink flows (fast path) or the components touching the
        node (fallback).
        """
        self._dirty.add(("up", node_id))
        self._dirty.add(("down", node_id))

    def remove_flow(self, flow_id: Hashable) -> None:
        """Drop a flow; its former neighbours are re-rated on recompute."""
        if flow_id not in self._flows:
            raise ConfigurationError(f"flow {flow_id!r} is not registered")
        links = self._flow_links.pop(flow_id)
        del self._flows[flow_id]
        del self._seq[flow_id]
        self._rates.pop(flow_id, None)
        self._fresh_loopbacks.discard(flow_id)
        if links is None:
            return
        for link in links:
            flows = self._link_flows.get(link)
            if flows is not None:
                flows.discard(flow_id)
                if not flows:
                    del self._link_flows[link]
            # Dirty even when now empty: capacity freed for nobody is a
            # no-op, but a still-populated sibling link must be re-rated.
            self._dirty.add(link)

    # ------------------------------------------------------------- recompute
    def recompute(self) -> Dict[Hashable, float]:
        """Settle the pending changes; return the re-rated flows' new rates.

        The returned mapping holds freshly added loopbacks first, then every
        re-rated flow in arrival order: on the fast path the flows of the
        dirty uplinks, on the fallback the affected components.  Values for
        some of them can equal the previous rate; flows left out are
        guaranteed unchanged.
        """
        changed: Dict[Hashable, float] = {
            fid: float("inf") for fid in self._fresh_loopbacks
        }
        self._fresh_loopbacks.clear()
        if not self._dirty:
            return changed
        settled = None if self._witnesses else self._uplink_shares()
        if settled is None:
            settled = self._resolve_components()
        self._dirty.clear()
        ordered, rates = settled
        if ordered:
            changed.update(zip(ordered, rates))
            self._m_recomputes.inc()
            self._m_component.observe(len(ordered))
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.instant(
                    "net.recompute",
                    "network",
                    track="fabric",
                    flows=len(ordered),
                    total=len(self._flows),
                )
        return changed

    def _uplink_shares(self) -> Optional[Tuple[List[Hashable], List[float]]]:
        """Fast path: rate each dirty uplink's flows at ``cap / n``.

        Returns the re-rated flows in arrival order with their rates if
        every downlink the batch could have changed passes the certificate,
        else ``None``.  A rejected proposal stays written for flows on dirty
        uplinks only, all of which the fallback re-solves.
        """
        link_flows = self._link_flows
        flow_links = self._flow_links
        rates = self._rates
        uplink = self.capacities.uplink
        rerated: List[Hashable] = []
        downs: Set[Link] = set()
        for link in self._dirty:
            flows = link_flows.get(link)
            if not flows:
                continue
            if link[0] == "down":
                downs.add(link)
                continue
            share = float(uplink[link[1]]) / len(flows)
            for fid in flows:
                rates[fid] = share
                downs.add(flow_links[fid][1])
            rerated.extend(flows)
        for link in downs:
            if not self._downlink_clear(link):
                return None
        rerated.sort(key=self._seq.__getitem__)
        return rerated, [rates[fid] for fid in rerated]

    def _downlink_clear(self, link: Link) -> bool:
        """Whether a downlink's load sits below its capacity's headroom."""
        load = math.fsum(map(self._rates.__getitem__, self._link_flows[link]))
        return load < self.capacities.downlink[link[1]] * _HEADROOM

    def _certified(self, link: Link) -> bool:
        """Whether one live link passes the certificate as rated now."""
        if link[0] == "down":
            return self._downlink_clear(link)
        flows = self._link_flows[link]
        share = float(self.capacities.uplink[link[1]]) / len(flows)
        rates = self._rates
        return all(rates[fid] == share for fid in flows)

    def _resolve_components(self) -> Tuple[List[Hashable], List[float]]:
        """Fallback: re-solve every component touching a dirty link.

        Returns the re-solved flows in arrival order with their rates, and
        re-derives the witnesses of those components: the first link of
        each that fails the certificate.
        """
        flows, components = self._affected_components()
        witnesses = self._witnesses
        if witnesses:
            witnesses.difference_update(self._dirty)
            for links in components:
                witnesses.difference_update(links)
        if not flows:
            return [], []
        ordered = sorted(flows, key=self._seq.__getitem__)
        endpoints = [self._flows[fid] for fid in ordered]
        rates = maxmin_rates_heap(endpoints, self.capacities)
        self._rates.update(zip(ordered, rates))
        for links in components:
            for link in links:
                if not self._certified(link):
                    witnesses.add(link)
                    break
        return ordered, rates

    def _affected_components(self) -> Tuple[Set[Hashable], List[List[Link]]]:
        """Flows, and links per component, of every component touching a
        dirty link.

        BFS over the bipartite link-flow incidence, seeded at the dirty
        links; cost is proportional to the affected subgraph, not the
        global flow count.
        """
        link_flows = self._link_flows
        flow_links = self._flow_links
        seen_links: Set[Link] = set()
        seen_flows: Set[Hashable] = set()
        components: List[List[Link]] = []
        for seed in self._dirty:
            if seed in seen_links or seed not in link_flows:
                continue
            seen_links.add(seed)
            links = [seed]
            stack = [seed]
            while stack:
                for fid in link_flows[stack.pop()]:
                    if fid in seen_flows:
                        continue
                    seen_flows.add(fid)
                    pair = flow_links[fid]
                    assert pair is not None  # loopbacks carry no incidence
                    for other in pair:
                        if other not in seen_links:
                            seen_links.add(other)
                            links.append(other)
                            stack.append(other)
            components.append(links)
        return seen_flows, components
