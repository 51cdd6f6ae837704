"""The path-bundled allocator against the per-flow allocator, bit for bit.

``Topology`` fills one bundle per distinct route; ``PerFlowTopology``
(``repro.oracles.allocator``) fills flow by flow.  They must agree with
``==`` on every flow's rate after every reallocation, so the scenarios
here are built to make shares tie: identical access-link capacities,
many flows per route, staggered starts (a bundle's oldest member can
finish first) and a mid-run capacity change (the full-refill path).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microgrid import Architecture, Host, Topology
from repro.oracles.allocator import PerFlowTopology
from repro.sim import Simulator


class _Recorded:
    """Logs ``(flow seq, allocation)`` for every flow after each fill."""

    def __init__(self, sim):
        super().__init__(sim)
        self.log = []

    def _allocate(self, seed_edges):
        super()._allocate(seed_edges)
        self.log.append([(f.seq, f.allocation) for f in self._flows])


class RecordedTopology(_Recorded, Topology):
    pass


class RecordedPerFlowTopology(_Recorded, PerFlowTopology):
    pass


def _run(topology_cls, hosts, trunk_bw, flows, retune=None):
    """Hosts hang off router ``r0`` or ``r1`` (joined by a trunk);
    ``flows`` are ``(start, src, dst, nbytes)``; ``retune`` is
    ``(time, host, bandwidth)`` for a mid-run access-link change."""
    sim = Simulator()
    topo = topology_cls(sim)
    arch = Architecture(name="t", mflops=1.0)
    topo.add_node("r0")
    topo.add_node("r1")
    topo.add_link("r0", "r1", bandwidth=trunk_bw, latency=0.001)
    for i, (router, bw) in enumerate(hosts):
        topo.attach_host(Host(sim, f"h{i}", arch))
        topo.add_link(f"h{i}", f"r{router}", bandwidth=bw, latency=0.001)
    done = []
    for start, src, dst, nbytes in flows:
        sim.call_at(start, lambda s=src, d=dst, b=nbytes: topo.transfer(
            f"h{s}", f"h{d}", b).add_callback(
                lambda ev, s=s, d=d: done.append((s, d, ev.value))))
    if retune is not None:
        at, host, bw = retune
        router = hosts[host][0]
        sim.call_at(at, lambda: topo.add_link(f"h{host}", f"r{router}",
                                              bandwidth=bw, latency=0.001))
    sim.run()
    return {"log": topo.log, "done": done,
            "bytes": topo.bytes_delivered, "now": sim.now,
            "events": sim.stats.events_processed,
            "reallocations": sim.stats.reallocations,
            "stale": sim.stats.wakeups_cancelled}


def _assert_bit_identical(hosts, trunk_bw, flows, retune=None):
    fast = _run(RecordedTopology, hosts, trunk_bw, flows, retune)
    ref = _run(RecordedPerFlowTopology, hosts, trunk_bw, flows, retune)
    assert len(fast["log"]) == len(ref["log"])
    for step, (got, want) in enumerate(zip(fast["log"], ref["log"])):
        assert got == want, f"fill {step}: {got} != {want}"
    assert fast == ref
    return fast


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
        st.sampled_from([0.1, 0.3, 0.7]), st.integers(0, n - 1), _BWS)))
    return hosts, trunk_bw, flows, retune


@settings(max_examples=150, deadline=None)
@given(scenario=_tie_scenarios())
def test_property_bundled_rates_equal_per_flow_rates(scenario):
    """Every reallocation leaves every flow at the per-flow allocator's
    exact rate, so completions, bytes and counters match exactly too."""
    hosts, trunk_bw, flows, retune = scenario
    _assert_bit_identical(hosts, trunk_bw, flows, retune)


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
    run = _assert_bit_identical(hosts, 1e6, flows, retune)
    tied = [(seq, 1e6 / 3) for seq in range(1, 7)]
    fills = [fill for fill in run["log"] if fill == tied]
    assert len(fills) == (1 if retune is None else 2)
