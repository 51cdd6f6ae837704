"""Fast engine vs reference oracle: exact schedule equivalence.

The incremental array-backed builder behind ``HEURISTICS`` must be a
pure optimization: for every workflow shape, grid, and heuristic it has
to produce the same placements with the same estimated times — bit-for-
bit, not approximately — as the pure-Python oracle in
``repro.oracles.scheduler.REFERENCE_HEURISTICS``.  Hypothesis drives randomized layered and
bag-of-tasks workflows over heterogeneous multi-cluster grids.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gis import GridInformationService
from repro.microgrid import Architecture, Cluster, Grid
from repro.nws import NetworkWeatherService
from repro.oracles.scheduler import REFERENCE_HEURISTICS
from repro.perfmodel import AnalyticComponentModel
from repro.scheduler import (
    HEURISTICS,
    Workflow,
    WorkflowComponent,
    build_rank_matrix,
)
from repro.sim import Simulator

HEURISTIC_NAMES = sorted(HEURISTICS)


def heterogeneous_grid(rng, n_clusters, hosts_per_cluster):
    """Chained clusters with randomized per-cluster speeds."""
    sim = Simulator()
    grid = Grid(sim)
    clusters = []
    for c in range(n_clusters):
        mflops = float(rng.uniform(100, 800))
        arch = Architecture(name=f"a{c}", mflops=mflops)
        clusters.append(grid.add_cluster(Cluster(
            sim, grid.topology, f"c{c}", arch=arch,
            n_hosts=hosts_per_cluster,
            link_bandwidth=float(rng.uniform(50e6, 200e6)),
            link_latency=1e-4, site=f"S{c}")))
    for a, b in zip(clusters, clusters[1:]):
        grid.topology.add_link(a.switch, b.switch,
                               bandwidth=float(rng.uniform(2e6, 20e6)),
                               latency=float(rng.uniform(0.005, 0.05)))
    return sim, grid


def layered_workflow(rng, depth, width):
    """Alternating serial/parallel layers with random weights/volumes."""
    wf = Workflow("layered")
    previous = None
    for level in range(depth):
        n_tasks = 1 if level % 2 == 0 else int(rng.integers(2, width + 1))
        mflop = float(rng.uniform(200, 4000)) * n_tasks
        name = f"l{level}"
        wf.add_component(WorkflowComponent(
            name=name,
            model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m),
            problem_size=1.0,
            n_tasks=n_tasks,
            input_bytes_per_task=float(rng.uniform(0, 8e6)),
        ))
        if previous is not None:
            wf.add_dependence(previous, name)
        previous = name
    return wf


def bag_workflow(rng, n_components):
    """Independent components, some parallelizable, heavy-tailed sizes."""
    wf = Workflow("bag")
    for i in range(n_components):
        mflop = float(rng.pareto(1.3) * 600 + 100)
        wf.add_component(WorkflowComponent(
            name=f"t{i}",
            model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m),
            problem_size=1.0,
            n_tasks=int(rng.integers(1, 5)),
            input_bytes_per_task=float(rng.uniform(0, 20e6)),
        ))
    return wf


def diamond_workflow(rng, width):
    """entry -> two parallel branches -> join: exercises multi-pred
    data-ready vectors (the max over predecessor components)."""
    wf = Workflow("diamond")

    def add(name, n_tasks):
        mflop = float(rng.uniform(200, 2000)) * n_tasks
        wf.add_component(WorkflowComponent(
            name=name,
            model=AnalyticComponentModel(mflop_fn=lambda n, m=mflop: m),
            problem_size=1.0, n_tasks=n_tasks,
            input_bytes_per_task=float(rng.uniform(0, 5e6))))

    add("entry", 1)
    add("left", int(rng.integers(2, width + 1)))
    add("right", int(rng.integers(2, width + 1)))
    add("join", 1)
    wf.add_dependence("entry", "left")
    wf.add_dependence("entry", "right")
    wf.add_dependence("left", "join")
    wf.add_dependence("right", "join")
    return wf


def build_case(seed, shape):
    rng = np.random.default_rng(seed)
    sim, grid = heterogeneous_grid(rng, n_clusters=int(rng.integers(2, 4)),
                                   hosts_per_cluster=int(rng.integers(2, 5)))
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    if shape == "layered":
        wf = layered_workflow(rng, depth=int(rng.integers(2, 6)), width=6)
    elif shape == "bag":
        wf = bag_workflow(rng, n_components=int(rng.integers(3, 12)))
    else:
        wf = diamond_workflow(rng, width=6)
    hosts = [r.name for r in gis.resources()]
    sources = {c.name: [hosts[int(rng.integers(len(hosts)))]]
               for c in wf.components() if not wf.predecessors(c.name)}
    matrix = build_rank_matrix(wf, gis, nws, data_sources=sources)
    return wf, matrix, nws


def assert_identical(fast, reference, label):
    assert set(fast.placements) == set(reference.placements), label
    for name, p in fast.placements.items():
        q = reference.placements[name]
        assert p.resource == q.resource, (label, name)
        assert p.est_start == q.est_start, (label, name)
        assert p.est_finish == q.est_finish, (label, name)
    assert fast.makespan == reference.makespan, label
    assert fast.heuristic == reference.heuristic, label


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       shape=st.sampled_from(["layered", "bag", "diamond"]),
       name=st.sampled_from(HEURISTIC_NAMES))
def test_property_fast_matches_reference(seed, shape, name):
    wf, matrix, nws = build_case(seed, shape)
    if name == "random":
        fast = HEURISTICS[name](wf, matrix, nws,
                                rng=np.random.default_rng(seed))
        reference = REFERENCE_HEURISTICS[name](
            wf, matrix, nws, rng=np.random.default_rng(seed))
    else:
        fast = HEURISTICS[name](wf, matrix, nws)
        reference = REFERENCE_HEURISTICS[name](wf, matrix, nws)
    assert_identical(fast, reference, (name, shape, seed))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_all_six_on_one_case(seed):
    """One randomized case, every registry entry — catches heuristics
    whose shared-state assumptions only break after another ran."""
    wf, matrix, nws = build_case(seed, "layered")
    for name in HEURISTIC_NAMES:
        fast = HEURISTICS[name](wf, matrix, nws)
        reference = REFERENCE_HEURISTICS[name](wf, matrix, nws)
        assert_identical(fast, reference, (name, seed))


def test_registries_cover_same_heuristics():
    assert set(HEURISTICS) == set(REFERENCE_HEURISTICS)
    assert set(HEURISTICS) == {"min-min", "max-min", "sufferage",
                               "random", "fifo", "heft"}
