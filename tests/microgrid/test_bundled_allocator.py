"""The coalescing, path-bundled allocator against the eager per-flow
allocator, bit for bit.

``Topology`` fills once per simulated instant, one bundle per distinct
route; ``PerFlowTopology`` (``repro.oracles.allocator``) fills flow by
flow at every flow event.  Rates only act over positive intervals, so
they must agree with ``==`` on every flow's rate once each instant has
closed.  The scenarios are built to make shares tie: identical
access-link capacities, many flows per route, staggered starts (a
bundle's oldest member can finish first), same-instant arrivals and a
mid-run capacity change (the full-refill path).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microgrid import Architecture, Host, Topology
from repro.oracles.allocator import PerFlowTopology
from repro.sim import Simulator
from repro.trace import Tracer


def _rates(topo):
    return [(f.seq, f.allocation) for f in topo._flows]


class RecordedTopology(Topology):
    """Logs every flow's ``(seq, allocation)`` as each instant closes."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = {}
        self.records = {}  # perturbation records each close replayed
        self.fills = 0

    def _wake(self, epoch):
        if epoch is None:
            self.records[self.sim.now] = list(self._perturbed)
        super()._wake(epoch)
        if epoch is None:
            self.log[self.sim.now] = _rates(self)

    def _fill(self, bundles, mark, done):
        self.fills += 1
        super()._fill(bundles, mark, done)


class RecordedPerFlowTopology(PerFlowTopology):
    """Logs the same after every fill; an instant's last fill stands."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = {}

    def _perturb(self, seed_edges):
        super()._perturb(seed_edges)
        self.log[self.sim.now] = _rates(self)


def _grid(topology_cls, hosts, trunk_bw, latency=0.001):
    """Hosts hang off router ``r0`` or ``r1``, joined by a trunk."""
    sim = Simulator()
    topo = topology_cls(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.add_node("r0")
    topo.add_node("r1")
    topo.add_link("r0", "r1", bandwidth=trunk_bw, latency=latency)
    for i, (router, bw) in enumerate(hosts):
        topo.attach_host(Host(sim, f"h{i}", arch))
        topo.add_link(f"h{i}", f"r{router}", bandwidth=bw, latency=latency)
    return sim, topo


def _run(topology_cls, hosts, trunk_bw, flows, retune=None, chain=(),
         latency=0.001):
    """``flows`` are ``(start, src, dst, nbytes)``; ``retune`` is
    ``(time, host, bandwidth)`` for a mid-run access-link change;
    ``chain`` entries ``(flow index, src, dst, nbytes)`` start a flow
    the instant that flow completes."""
    sim, topo = _grid(topology_cls, hosts, trunk_bw, latency)
    done = []

    def launch(key, src, dst, nbytes):
        def finished(ev):
            done.append((key, sim.now, ev.value))
            for after, s, d, b in chain:
                if after == key:
                    launch(("chained", s, d), s, d, b)

        topo.transfer(f"h{src}", f"h{dst}", nbytes).add_callback(finished)

    for key, (start, src, dst, nbytes) in enumerate(flows):
        sim.call_at(start, lambda k=key, s=src, d=dst, b=nbytes:
                    launch(k, s, d, b))
    if retune is not None:
        at, host, bw = retune
        router = hosts[host][0]
        sim.call_at(at, lambda: topo.add_link(f"h{host}", f"r{router}",
                                              bandwidth=bw, latency=latency))
    sim.run()
    return topo, {"log": list(topo.log.items()), "done": done,
                  "bytes": topo.bytes_delivered}


def _assert_bit_identical(hosts, trunk_bw, flows, retune=None, chain=(),
                          latency=0.001):
    fast_topo, fast = _run(RecordedTopology, hosts, trunk_bw, flows, retune,
                           chain, latency)
    ref_topo, ref = _run(RecordedPerFlowTopology, hosts, trunk_bw, flows,
                         retune, chain, latency)
    assert [t for t, _ in fast["log"]] == [t for t, _ in ref["log"]]
    for (at, got), (_, want) in zip(fast["log"], ref["log"]):
        assert got == want, f"instant {at}: {got} != {want}"
    assert fast == ref
    # one reallocation per instant at which the eager allocator filled
    assert fast_topo.sim.stats.reallocations == ref_topo.fill_instants
    return fast_topo, fast


_BWS = st.sampled_from([1e6, 1e6, 2e6, 3e6])


@st.composite
def _tie_scenarios(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    hosts = draw(st.lists(st.tuples(st.integers(0, 1), _BWS),
                          min_size=n, max_size=n))
    trunk_bw = draw(_BWS)
    # few distinct routes, several flows on each
    routes = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)),
        min_size=1, max_size=4))
    flows = []
    for src, hop in routes:
        dst = (src + hop) % n
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            flows.append((draw(st.sampled_from([0.0, 0.0, 0.05, 0.2, 0.4])),
                          src, dst,
                          draw(st.sampled_from([1e5, 2e5, 3e5, 6e5]))))
    retune = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from([0.0, 0.1, 0.3, 0.7]), st.integers(0, n - 1), _BWS)))
    # arrivals at the instant a flow departs
    chain = draw(st.lists(st.tuples(
        st.integers(0, len(flows) - 1), st.integers(0, n - 1),
        st.integers(1, n - 1), st.sampled_from([1e5, 3e5]),
    ).map(lambda c: (c[0], c[1], (c[1] + c[2]) % n, c[3])), max_size=2))
    return hosts, trunk_bw, flows, retune, chain


@settings(max_examples=150, deadline=None)
@given(scenario=_tie_scenarios(), latency=st.sampled_from([0.0, 0.001]))
def test_property_bundled_rates_equal_per_flow_rates(scenario, latency):
    """Once each instant closes, every flow is at the eager per-flow
    allocator's exact rate, so completions and bytes match exactly too.
    Zero latency makes chained arrivals land in the departure's instant."""
    hosts, trunk_bw, flows, retune, chain = scenario
    _assert_bit_identical(hosts, trunk_bw, flows, retune, chain, latency)


@pytest.mark.parametrize("retune", [None, (0.7, 2, 3e6)],
                         ids=["departure", "departure-then-full-refill"])
def test_bundle_whose_oldest_member_leaves_moves_behind_younger_bundle(
        retune):
    """Pinned tie: route P (h0 -> h1) starts one flow, route Q (h2 -> h1)
    starts three, then P three more.  When P's first flow leaves, P is
    younger than Q, so on the shared h1 access link Q must come first —
    as it does in a per-flow index kept in start order.  The departure
    fill then meets h1's share (2e6 / 6) before the exactly tied share
    of P's own access link (1e6 / 3) and fixes all six flows at 1e6 / 3;
    in the stale order P is fixed first and Q's share picks up an ulp.
    Re-adding h2's link unchanged later forces a full refill, which must
    order the bundles the same way (by oldest member, not by creation)."""
    hosts = [(0, 1e6), (0, 2e6), (0, 3e6)]
    flows = ([(0.0, 0, 1, 2e5)] + [(0.05, 2, 1, 6e5)] * 3
             + [(0.1, 0, 1, 6e5)] * 3)
    _topo, run = _assert_bit_identical(hosts, 1e6, flows, retune)
    tied = [(seq, 1e6 / 3) for seq in range(1, 7)]
    fills = [rates for _at, rates in run["log"] if rates == tied]
    assert len(fills) == (1 if retune is None else 2)


def test_arrivals_at_one_instant_make_one_fill():
    """Eight same-instant arrivals into one component: one close, one
    fill, and the rates of the last per-event fill."""
    hosts = [(0, 1e6), (0, 2e6), (1, 1e6), (1, 3e6)]
    flows = [(0.5, src, dst, 3e5)
             for src, dst in ((0, 2), (1, 3), (0, 3), (1, 2)) * 2]
    _topo, run = _assert_bit_identical(hosts, 2e6, flows, latency=0.0)
    start = [rates for at, rates in run["log"] if at == 0.5]
    assert len(start) == 1 and len(start[0]) == 8
    sim, topo = _grid(RecordedTopology, hosts, 2e6, latency=0.0)
    for _start, src, dst, nbytes in flows:
        topo.transfer(f"h{src}", f"h{dst}", nbytes)
    sim.run(until=0.0)
    assert (sim.stats.reallocations, topo.fills) == (1, 1)
    assert all(f.allocation > 0 for f in topo._flows)


def test_departure_bridging_two_components_with_same_instant_arrival():
    """Pinned replay order.  A 10 kB flow h0 -> h1 bridges h2 -> h1 (on
    h1's downlink) and a mesh on h0's uplink (h0 -> h4, h0 -> h7,
    h5 -> h4, h9 -> h7 twice, h5 -> h6, h9 -> h6; every link 1 MB/s).
    When it leaves at t=0.03, h3 -> h4 starts in the same instant.
    Eager fills end the instant with the arrival's fill of the mesh and
    the departure's fill of h2 -> h1; the close replays both, newest
    first.  One fill seeded with the union of both records' edges would
    find h0's uplink already seen, reach the mesh's bundles on it later
    than the arrival's own fill does, and break a tie between equal
    shares the other way: those rates come out an ulp off."""
    hosts = [(0, 1e6)] * 10
    flows = [(0.0, 0, 1, 1e4)] + [
        (0.0, src, dst, 6e6) for src, dst in
        ((5, 4), (0, 4), (0, 7), (9, 7), (9, 7), (2, 1), (5, 6), (9, 6))]
    topo, run = _assert_bit_identical(hosts, 1e6, flows,
                                      chain=[(0, 3, 4, 6e6)], latency=0.0)
    key, left_at, _elapsed = run["done"][0]
    assert key == 0 and left_at == pytest.approx(0.03)
    departure, arrival = topo.records[left_at]
    assert len(departure) == 2 and len(arrival) == 2


def _start_retune_start(topology_cls):
    """At t=1: a flow starts, then h2's access link is re-added at a new
    capacity, then a second flow starts, all in one instant."""
    sim, topo = _grid(topology_cls, [(0, 1e6), (0, 1e6), (1, 2e6), (1, 3e6)],
                      1.5e6, latency=0.0)
    done = []

    def xfer(src, dst, nbytes):
        topo.transfer(f"h{src}", f"h{dst}", nbytes).add_callback(
            lambda ev: done.append((src, dst, sim.now)))

    for src, dst in ((0, 2), (0, 2), (1, 3)):
        xfer(src, dst, 6e5)

    def retune_then_start():
        topo.add_link("h2", "r1", bandwidth=3e6, latency=0.0)
        xfer(1, 2, 3e5)

    def at_one():
        xfer(0, 3, 3e5)  # its start is queued ahead of the retune
        sim.call_after(0.0, retune_then_start)

    sim.call_at(1.0, at_one)
    sim.run()
    return topo, done


def test_add_link_between_two_same_instant_starts():
    """The full refill the retune asks for supersedes the first start's
    record, and the second start refills its component on the new
    capacities — the rates eager fills end the instant with."""
    fast, fast_done = _start_retune_start(RecordedTopology)
    ref, ref_done = _start_retune_start(RecordedPerFlowTopology)
    assert [seeds is None for seeds in fast.records[1.0]] == [True, False]
    assert list(fast.log.items()) == list(ref.log.items())
    assert fast_done == ref_done
    assert fast.bytes_delivered == ref.bytes_delivered
    assert fast.sim.stats.reallocations == ref.fill_instants


def _edge_loads_run(read):
    """Flows arrive at t=1 in one instant, with a reader between the
    arrivals and the close; returns (loads read mid-instant and after
    the close, traced events, stats, completions)."""
    sim, topo = _grid(Topology, [(0, 1e6), (0, 2e6), (1, 1e6)], 1.5e6,
                      latency=0.0)
    tracer = Tracer(categories=["kernel", "network"]).bind(sim)
    seen = {}
    done = []
    for src, dst in ((0, 2), (1, 2), (0, 1), (1, 2)):
        sim.call_at(1.0, lambda s=src, d=dst: topo.transfer(
            f"h{s}", f"h{d}", 4e5).add_callback(
                lambda ev: done.append((sim.now, ev.value))))

    def reader():
        seen["pending"] = len(topo._perturbed)
        if read:
            seen["mid"] = topo.edge_loads()
        sim.call_late(lambda _ev: seen.setdefault("after", topo.edge_loads()))

    # scheduled after the transfers' zero-latency starts are queued
    sim.call_at(1.0, lambda: sim.call_after(0.0, reader))
    sim.run()
    trace = [(r.ts, r.cat, r.name, r.args) for r in tracer.records]
    return seen, trace, sim.stats.snapshot(), done


def test_edge_loads_mid_instant_runs_pending_fills_without_side_effects():
    seen, trace, stats, done = _edge_loads_run(read=True)
    assert seen["pending"] == 4  # the read came before the close
    assert seen["mid"] == seen["after"]
    assert any(load > 0 for load, _cap in seen["mid"])
    _seen, trace_unread, stats_unread, done_unread = _edge_loads_run(
        read=False)
    assert trace == trace_unread
    assert stats == stats_unread
    assert done == done_unread
