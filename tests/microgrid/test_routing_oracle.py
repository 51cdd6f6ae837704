"""The topology's own Dijkstra against ``networkx.single_source_dijkstra``.

Latencies are quantised to a few values, ``0.0`` included, so equal
distances (and so tie-breaks) are common; ``0.1 + 0.2 != 0.3`` makes
the float additions themselves part of the comparison.  Both sides
see the same node and link insertions in the same order, including
links re-added with new latency and bandwidth after routes were read.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microgrid import NetworkError, Topology
from repro.sim import Simulator

nx = pytest.importorskip("networkx")

NAMES = ["n3", "a", "n10", "b", "z", "m"]
LATENCIES = [0.0, 0.0, 0.5, 0.5, 1.0, 0.1, 0.2, 0.3]  # repeats bias to ties
BANDWIDTHS = [1.0, 2.0, 5e6, 1e9]

node_ops = st.tuples(st.just("node"), st.sampled_from(NAMES))
link_ops = st.tuples(st.just("link"), st.sampled_from(NAMES),
                     st.sampled_from(NAMES), st.sampled_from(BANDWIDTHS),
                     st.sampled_from(LATENCIES))
op_lists = st.lists(st.one_of(node_ops, link_ops, link_ops, link_ops),
                    max_size=24)
# ("relink", i, bw, lat) re-adds the i-th existing link (mod the count)
relink_ops = st.tuples(st.just("relink"), st.integers(0, 63),
                       st.sampled_from(BANDWIDTHS), st.sampled_from(LATENCIES))
later_op_lists = st.lists(st.one_of(node_ops, link_ops, relink_ops, relink_ops,
                                    relink_ops), max_size=16)


def apply(topo, graph, op):
    if op[0] == "relink":
        edges = list(graph.edges)
        if not edges:
            return
        _, i, bw, lat = op
        a, b = edges[i % len(edges)]
        op = ("link", a, b, bw, lat)
    if op[0] == "node":
        topo.add_node(op[1])
        graph.add_node(op[1])
    else:
        _, a, b, bw, lat = op
        topo.add_link(a, b, bandwidth=bw, latency=lat)
        graph.add_edge(a, b, bandwidth=bw, latency=lat)


def assert_routes_match(topo, graph):
    for src in graph:
        dist, paths = nx.single_source_dijkstra(graph, src, weight="latency")
        for dst in graph:
            if dst not in paths:
                with pytest.raises(NetworkError):
                    topo.route(src, dst)
                continue
            path = paths[dst]
            assert topo.route(src, dst) == path
            if src == dst:
                continue
            assert topo.path_latency(src, dst).hex() == float(dist[dst]).hex()
            bottleneck = min(graph.edges[u, v]["bandwidth"]
                             for u, v in zip(path, path[1:]))
            assert topo.path_bottleneck_bw(src, dst).hex() == bottleneck.hex()


@settings(max_examples=300, deadline=None)
@given(first=op_lists, later=later_op_lists)
def test_routes_match_networkx(first, later):
    topo, graph = Topology(Simulator()), nx.Graph()
    for op in first:
        apply(topo, graph, op)
    assert_routes_match(topo, graph)  # fills the route caches
    for op in later:
        apply(topo, graph, op)
    assert_routes_match(topo, graph)


def test_links_view_matches_networkx_edges():
    topo, graph = Topology(Simulator()), nx.Graph()
    for op in [("link", "b", "a", 1.0, 0.1), ("node", "c"),
               ("link", "c", "a", 2.0, 0.2), ("link", "a", "b", 3.0, 0.3)]:
        apply(topo, graph, op)
    got = {frozenset((link.a, link.b)): (link.bandwidth, link.latency)
           for link in topo.links}
    want = {frozenset((u, v)): (d["bandwidth"], d["latency"])
            for u, v, d in graph.edges(data=True)}
    assert got == want
    assert len(topo.links) == graph.number_of_edges()
