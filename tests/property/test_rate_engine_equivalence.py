"""Property: the incremental RateEngine equals a fresh full recompute.

For *any* interleaving of flow arrivals, departures, capacity changes and
recomputes — including loopback flows and single-flow instances — the
engine's rate vector must equal ``maxmin_rates`` run from scratch on the
surviving non-loopback flows, bit for bit.  On its fast path the engine
rates uplink-bound flows at ``cap / n`` under a certificate; otherwise its
heap kernel replays the reference's arithmetic on each dirty component
with insertion-ordered flows, which the kernel properties below pin on
their own.
"""

import math
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.network.bandwidth import LinkCapacities, maxmin_rates, maxmin_rates_heap
from repro.network.rate_engine import _HEADROOM, RateEngine


@st.composite
def churn_scripts(draw):
    """A capacity map plus a random add/remove/recompute op sequence."""
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    caps = LinkCapacities()
    for i in range(n_nodes):
        caps.add_node(
            f"n{i}",
            uplink=draw(st.floats(min_value=0.1, max_value=1000.0)),
            downlink=draw(st.floats(min_value=0.1, max_value=1000.0)),
        )
    n_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    live = 0
    for _ in range(n_ops):
        # Removal targets an index into the currently-live set; loopbacks
        # (src == dst) are legal and must come out with an infinite rate.
        kind = draw(
            st.sampled_from(["add", "add", "add", "remove", "recompute"])
            if live
            else st.just("add")
        )
        if kind == "add":
            src = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            dst = draw(st.integers(min_value=0, max_value=n_nodes - 1))
            ops.append(("add", f"n{src}", f"n{dst}"))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        else:
            ops.append(("recompute",))
    return caps, ops


def reference_vector(live_flows, caps):
    """Fresh full recompute over the surviving flows, loopbacks -> inf."""
    ids, endpoints = [], []
    expected = {}
    for fid, (src, dst) in live_flows:
        if src == dst:
            expected[fid] = math.inf
        else:
            ids.append(fid)
            endpoints.append((src, dst))
    for fid, rate in zip(ids, maxmin_rates(endpoints, caps)):
        expected[fid] = rate
    return expected


@given(churn_scripts())
@settings(max_examples=200, deadline=None)
def test_engine_matches_fresh_recompute_after_any_churn(script):
    caps, ops = script
    engine = RateEngine(caps)
    live = []  # [(fid, (src, dst))] in insertion order
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, src, dst = op
            engine.add_flow(next_id, src, dst)
            live.append((next_id, (src, dst)))
            next_id += 1
        elif op[0] == "remove":
            fid, _ = live.pop(op[1])
            engine.remove_flow(fid)
        else:
            engine.recompute()

    got = engine.rates()
    expected = reference_vector(live, caps)
    assert {fid: rate.hex() for fid, rate in got.items()} == {
        fid: rate.hex() for fid, rate in expected.items()
    }


@given(churn_scripts())
@settings(max_examples=100, deadline=None)
def test_recompute_placement_is_irrelevant(script):
    """Recomputing after every op or only once at the end gives the same
    final vector — batching same-instant changes is semantics-preserving."""
    caps, ops = script
    eager = RateEngine(caps)
    lazy = RateEngine(caps)
    live_eager, live_lazy = [], []
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, src, dst = op
            eager.add_flow(next_id, src, dst)
            lazy.add_flow(next_id, src, dst)
            live_eager.append(next_id)
            live_lazy.append(next_id)
            next_id += 1
        elif op[0] == "remove":
            eager.remove_flow(live_eager.pop(op[1]))
            lazy.remove_flow(live_lazy.pop(op[1]))
        else:
            eager.recompute()  # lazy deliberately skips interior recomputes
    assert eager.rates() == lazy.rates()


#: ``bind`` targets: a downlink set to the exact load of its flows' uplink
#: shares, one ulp either side of it, or just outside the certificate's
#: headroom (where the fast path must still be exact).
BIND_OFFSETS = ("exact", "ulp-below", "ulp-above", "headroom")


@st.composite
def certificate_scripts(draw):
    """Node capacities plus churn that straddles the uplink certificate.

    Uplinks come from a small pool so equal shares are common; downlinks
    are mostly 20x faster (the paper's NIC ratio), so the fast path runs,
    and sometimes as slow as or slower than the uplink, so it falls back.
    Besides add/remove/recompute, ``scale`` multiplies a node's capacities
    in place and ``bind`` sets a downlink to the load of its flows (see
    :data:`BIND_OFFSETS`); both then ``touch_node``.
    """
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = []
    for i in range(n_nodes):
        up = draw(st.sampled_from([1.0, 2.0, 3.0, 0.7]))
        ratio = draw(st.sampled_from([20.0, 20.0, 20.0, 1.0, 0.5]))
        nodes.append((f"n{i}", up, up * ratio))
    node = st.integers(min_value=0, max_value=n_nodes - 1).map(lambda i: f"n{i}")
    ops = []
    live = 0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kinds = ["add", "add", "add", "recompute", "recompute", "scale", "bind"]
        kind = draw(st.sampled_from(kinds + ["remove", "remove"] if live else kinds))
        if kind == "add":
            ops.append(("add", draw(node), draw(node)))
            live += 1
        elif kind == "remove":
            ops.append(("remove", draw(st.integers(min_value=0, max_value=live - 1))))
            live -= 1
        elif kind == "scale":
            ops.append(("scale", draw(node), draw(st.sampled_from([0.25, 0.5, 2.0, 3.0]))))
        elif kind == "bind":
            ops.append(("bind", draw(node), draw(st.sampled_from(BIND_OFFSETS))))
        else:
            ops.append(("recompute",))
    return nodes, ops


def bound_downlink(caps, live, node, offset):
    """A downlink capacity placed at ``offset`` from its flows' load."""
    per_uplink = Counter(src for src, dst in live.values() if src != dst)
    load = math.fsum(
        caps.uplink[src] / per_uplink[src]
        for src, dst in live.values()
        if dst == node and src != dst
    )
    if not load:
        return caps.downlink[node]
    if offset == "ulp-below":
        return math.nextafter(load, 0.0)
    if offset == "ulp-above":
        return math.nextafter(load, math.inf)
    if offset == "headroom":
        return load * (1.0 + 1e-8)
    return load


def certified(engine):
    """Every flow at its uplink's equal share, every downlink in headroom."""
    rates = engine.rates()
    caps = engine.capacities
    per_link = {}
    for fid, (src, dst) in engine._flows.items():
        if src != dst:
            per_link.setdefault(("up", src), []).append(fid)
            per_link.setdefault(("down", dst), []).append(fid)
    for (kind, node), fids in per_link.items():
        if kind == "up":
            share = caps.uplink[node] / len(fids)
            if any(rates[fid] != share for fid in fids):
                return False
        elif not math.fsum(rates[fid] for fid in fids) < caps.downlink[node] * _HEADROOM:
            return False
    return True


def drive_certificate_script(nodes, ops, tally):
    """Replay one script, checking the oracle after every recompute.

    Also checks that the engine's witness set is empty exactly when the
    whole engine is certified, and tallies which branch settled each
    recompute into ``tally``.
    """
    caps = LinkCapacities()
    for name, up, down in nodes:
        caps.add_node(name, uplink=up, downlink=down)
    engine = RateEngine(caps)
    fast, fallback = engine._uplink_shares, engine._resolve_components
    fell_back = False

    def spy_fast():
        settled = fast()
        if settled is not None:
            tally["fast"] += 1
            if fell_back:
                tally["fast after fallback"] += 1
        return settled

    def spy_fallback():
        nonlocal fell_back
        fell_back = True
        tally["fallback"] += 1
        return fallback()

    engine._uplink_shares = spy_fast
    engine._resolve_components = spy_fallback

    def check():
        got = {fid: rate.hex() for fid, rate in engine.rates().items()}
        want = {fid: rate.hex() for fid, rate in engine.reference_rates().items()}
        assert got == want
        assert (not engine._witnesses) == certified(engine)

    live = {}  # fid -> (src, dst), in insertion order
    next_id = 0
    for op in ops:
        if op[0] == "add":
            engine.add_flow(next_id, op[1], op[2])
            live[next_id] = (op[1], op[2])
            next_id += 1
        elif op[0] == "remove":
            fid = list(live)[op[1]]
            del live[fid]
            engine.remove_flow(fid)
        elif op[0] == "scale":
            _, node, factor = op
            caps.uplink[node] *= factor
            caps.downlink[node] *= factor
            engine.touch_node(node)
        elif op[0] == "bind":
            _, node, offset = op
            caps.downlink[node] = bound_downlink(caps, live, node, offset)
            engine.touch_node(node)
        else:
            engine.recompute()
            check()
    check()


#: Fast path, then a downlink bound exactly (fallback), then its flow
#: leaves and the engine is certified again.
_ROUND_TRIP = (
    [("n0", 1.0, 20.0), ("n1", 1.0, 20.0), ("n2", 2.0, 40.0)],
    [
        ("add", "n0", "n2"), ("add", "n1", "n2"), ("recompute",),
        ("bind", "n2", "exact"), ("recompute",),
        ("remove", 1), ("recompute",),
        ("add", "n0", "n1"), ("recompute",),
    ],
)


def test_fast_path_matches_oracle_after_any_churn():
    """Both branches of the engine equal ``maxmin_rates`` bit for bit after
    every recompute — fast path, fallback, and the fast path again once a
    fallback has re-certified the engine."""
    tally = Counter()

    @given(certificate_scripts())
    @example(_ROUND_TRIP)
    @settings(max_examples=300, deadline=None)
    def run(script):
        drive_certificate_script(*script, tally)

    run()
    assert tally["fast"] and tally["fallback"] and tally["fast after fallback"], tally


def outcome(kernel, flows, caps):
    """A kernel's rates as ``float.hex`` strings, or its error message."""
    try:
        return [rate.hex() for rate in kernel(flows, caps)]
    except ConfigurationError as exc:
        return ("error", str(exc))


#: Capacities drawn from a small pool so equal shares (argmin ties) and
#: infinite links are common, mixed with arbitrary finite values.
capacity = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 0.5, 10.0, math.inf]),
    st.floats(min_value=1e-3, max_value=1e6),
)


@st.composite
def kernel_instances(draw):
    """Capacities plus a flow list, possibly naming one unregistered node."""
    n_nodes = draw(st.integers(min_value=1, max_value=7))
    caps = LinkCapacities()
    for i in range(n_nodes):
        caps.add_node(f"n{i}", uplink=draw(capacity), downlink=draw(capacity))
    # Index n_nodes is a ghost node: any flow naming it must be rejected
    # with the reference's message for whichever endpoint it hits first.
    top = n_nodes if draw(st.booleans()) else n_nodes - 1
    node = st.integers(min_value=0, max_value=top).map(lambda i: f"n{i}")
    # Parallel flows between one pair make a freeze charge a link many
    # times at once, where repeated addition and ``k * share`` part ways.
    repeats = st.integers(min_value=1, max_value=9)
    runs = draw(st.lists(st.tuples(node, node, repeats), max_size=10))
    flows = [(src, dst) for src, dst, k in runs for _ in range(k)]
    return caps, flows


@given(kernel_instances(), st.randoms(use_true_random=False))
@settings(max_examples=400, deadline=None)
def test_heap_kernel_is_bitwise_identical(instance, rnd):
    """The heap kernel equals the numpy reference *exactly* — same freeze
    order, same float operands, same error — for any flow population and
    any order of it, including loopbacks, infinite and equal capacities."""
    caps, flows = instance
    assert outcome(maxmin_rates_heap, flows, caps) == outcome(maxmin_rates, flows, caps)
    shuffled = list(flows)
    rnd.shuffle(shuffled)
    assert outcome(maxmin_rates_heap, shuffled, caps) == outcome(
        maxmin_rates, shuffled, caps
    )


def test_heap_kernel_breaks_share_ties_by_first_appearance():
    """Two links tie on share; the reference's tie-break decides the bits.

    Links in first-appearance order: #0 up:a (0.7; flows 0, 2, 3),
    #1 down:b, #2 up:b, #3 down:c (0.7; flows 1, 2, 3).  #0 and #3 tie at
    0.7 / 3, and ``np.argmin`` freezes #0 first: flows 0, 2, 3 get the
    share, and flow 1 gets what down:c has left, ``0.7 - (s + s)``, which
    rounds one ulp above ``s``.  Freezing #3 first would hand that ulp to
    flow 0 instead.
    """
    caps = LinkCapacities()
    caps.add_node("a", uplink=0.7, downlink=1.0)
    caps.add_node("b", uplink=0.3, downlink=0.6)
    caps.add_node("c", uplink=0.3, downlink=0.7)
    flows = [("a", "b"), ("b", "c"), ("a", "c"), ("a", "c")]
    share = 0.7 / 3
    want = [share, 0.7 - (share + share), share, share]
    assert want[1] != share  # the tie-break is observable
    assert [r.hex() for r in maxmin_rates(flows, caps)] == [r.hex() for r in want]
    assert [r.hex() for r in maxmin_rates_heap(flows, caps)] == [r.hex() for r in want]


def test_heap_kernel_charges_a_link_by_repeated_addition():
    """Eight flows freeze at once on up:a and charge down:b eight shares.

    ``np.add.at`` sums them one by one — 0.0875 added eight times is
    0.7000000000000001, while ``8 * 0.0875`` is 0.7 — and the last flow
    gets what down:b has left, so the two sums differ in its rate.
    """
    caps = LinkCapacities()
    caps.add_node("a", uplink=0.7, downlink=100.0)
    caps.add_node("b", uplink=100.0, downlink=1.4)
    caps.add_node("c", uplink=100.0, downlink=100.0)
    flows = [("a", "b")] * 8 + [("c", "b")]
    want = [0.0875] * 8 + [0.6999999999999998]
    assert [r.hex() for r in maxmin_rates(flows, caps)] == [r.hex() for r in want]
    assert [r.hex() for r in maxmin_rates_heap(flows, caps)] == [r.hex() for r in want]


@given(
    st.floats(min_value=0.1, max_value=1000.0),
    st.floats(min_value=0.1, max_value=1000.0),
)
def test_single_flow_gets_its_bottleneck(up, down):
    caps = LinkCapacities()
    caps.add_node("a", uplink=up, downlink=1e12)
    caps.add_node("b", uplink=1e12, downlink=down)
    engine = RateEngine(caps)
    engine.add_flow("only", "a", "b")
    assert engine.rates() == {"only": maxmin_rates([("a", "b")], caps)[0]}


@given(st.integers(min_value=1, max_value=5))
def test_pure_loopback_population(n):
    caps = LinkCapacities()
    caps.add_node("a", uplink=0.5, downlink=0.5)
    engine = RateEngine(caps)
    for i in range(n):
        engine.add_flow(i, "a", "a")
    rates = engine.rates()
    assert len(rates) == n and all(math.isinf(r) for r in rates.values())
