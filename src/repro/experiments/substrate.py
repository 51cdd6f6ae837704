"""Substrate stress workload: the hot-path benchmark behind every figure.

All paper experiments ride on ``repro.sim`` + ``repro.microgrid``; this
module drives those layers directly, with no scheduler on top, so the
kernel/network overhead is the only thing measured.  The workload is a
32-host, 8-cluster grid carrying 64 concurrent flows (3:1 mix of
intra-cluster to cross-cluster traffic, the locality of real grid
transfers); every completion immediately launches a replacement flow, so
each of the ~thousands of flow events perturbs the max-min allocation —
the worst case for the pre-overhaul from-scratch allocator and the
intended case for the incremental one.

:func:`run_fanout_bench` is the shape of the EMAN workflow instead: one
head node streams inputs to every worker of the grid and collects
results, so hundreds of concurrent flows ride a few dozen routes that
share the head's link — two large components, one per direction.

With ``topology_cls=ReferenceTopology`` or ``PerFlowTopology``
(``repro.oracles.allocator``) either workload times a reference
allocator on identical flow timelines.
"""

from __future__ import annotations

import math
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from ..microgrid.host import Architecture, Host
from ..microgrid.network import Topology
from ..sim.kernel import Simulator

__all__ = ["build_substrate_grid", "run_fanout_bench", "run_substrate_bench"]

#: access links: 1 Gbit/s, 0.1 ms; backbone: 10 Gbit/s, 5 ms
_ACCESS_BW = 125e6
_ACCESS_LAT = 1e-4
_CORE_BW = 1.25e9
_CORE_LAT = 5e-3
#: the fan-out head node, on the core router by a 40 Gbit/s link
_HEAD = "head"
_HEAD_BW = 4 * _CORE_BW


def build_substrate_grid(sim: Simulator, n_hosts: int = 32,
                         cluster_size: int = 4,
                         topology_cls=Topology
                         ) -> Tuple[Topology, List[List[str]]]:
    """A star-of-stars grid: clusters of hosts around a core router.

    Returns the topology and the host names grouped per cluster.
    """
    if n_hosts % cluster_size:
        raise ValueError("n_hosts must be a multiple of cluster_size")
    topo = topology_cls(sim)
    arch = Architecture(name="bench", mflops=1000.0)
    topo.add_node("core")
    clusters: List[List[str]] = []
    for c in range(n_hosts // cluster_size):
        switch = f"sw{c}"
        topo.add_node(switch)
        topo.add_link(switch, "core", bandwidth=_CORE_BW, latency=_CORE_LAT)
        names = []
        for i in range(cluster_size):
            name = f"h{c}.{i}"
            topo.attach_host(Host(sim, name, arch))
            topo.add_link(name, switch, bandwidth=_ACCESS_BW,
                          latency=_ACCESS_LAT)
            names.append(name)
        clusters.append(names)
    return topo, clusters


def _flow_spec(slot: int, seq: int, clusters: List[List[str]]
               ) -> Tuple[str, str, float]:
    """Deterministic (src, dst, nbytes) for the ``seq``-th flow of a slot.

    Slots with ``slot % 4 == 3`` carry cross-cluster traffic through the
    backbone; the rest stay inside one cluster.  Sizes cycle through a
    13-step pattern so completions interleave rather than synchronise.
    """
    n_clusters = len(clusters)
    cluster_size = len(clusters[0])
    mix = slot * 7919 + seq * 104729  # two primes decorrelate the streams
    if slot % 4 == 3:
        a = clusters[slot % n_clusters]
        b = clusters[(slot + 1 + mix % (n_clusters - 1)) % n_clusters]
        src = a[mix % cluster_size]
        dst = b[(mix // 7) % cluster_size]
    else:
        hosts = clusters[slot % n_clusters]
        src = hosts[mix % cluster_size]
        dst = hosts[(mix % cluster_size + 1 + (mix // 11) % (cluster_size - 1))
                    % cluster_size]
    nbytes = 0.5e6 * (1 + mix % 13)
    return src, dst, nbytes


def _fanout_spec(slot: int, seq: int, workers: List[str]
                 ) -> Tuple[str, str, float]:
    """Deterministic (src, dst, nbytes) for a fan-out flow: mostly input
    staged from the head node to a worker, every fifth a result back."""
    mix = slot * 7919 + seq * 104729
    worker = workers[mix % len(workers)]
    nbytes = 0.5e6 * (1 + mix % 13)
    if mix % 5 == 0:
        return worker, _HEAD, nbytes
    return _HEAD, worker, nbytes


def _churn(sim: Simulator, topo: Topology,
           spec: Callable[[int, int], Tuple[str, str, float]],
           concurrent_flows: int, total_transfers: int,
           keep_completions: bool) -> Dict[str, float]:
    """Keep ``concurrent_flows`` slots busy with ``spec(slot, seq)``
    flows until ``total_transfers`` have completed; counters, events/s
    and transfers/s.

    With ``keep_completions`` the result also lists every flow's
    completion instant by start order (``completion_times``).
    """
    state = {"started": 0, "completed": 0}
    completions: List[float] = [math.nan] * total_transfers

    def launch(slot: int) -> None:
        seq = state["started"]
        if seq >= total_transfers:
            return
        state["started"] = seq + 1
        src, dst, nbytes = spec(slot, seq)
        ev = topo.transfer(src, dst, nbytes, tag=str(seq))

        def done(_event) -> None:
            state["completed"] += 1
            completions[seq] = sim.now
            launch(slot)

        ev.add_callback(done)

    # simlint: the harness times *itself* in wall-clock seconds; nothing
    # inside the simulation reads these values.
    wall_start = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
    for slot in range(concurrent_flows):
        launch(slot)
    sim.run()
    elapsed = perf_counter() - wall_start  # simlint: ignore[SL001] — benchmark wall time
    stats = sim.stats.snapshot()
    stats.update({
        "allocator": "incremental",  # --json label, also on oracle runs
        "transfers_completed": state["completed"],
        "bytes_delivered": topo.bytes_delivered,
        "sim_seconds": sim.now,
        "wall_seconds": elapsed,
        "events_per_sec": (sim.stats.events_processed / elapsed
                           if elapsed > 0 else float("inf")),
        # engines differ in events per transfer (the coalescing topology
        # adds instant closes and drops stale wake-ups), so compare
        # engines by transfers/s
        "transfers_per_sec": (state["completed"] / elapsed
                              if elapsed > 0 else float("inf")),
    })
    if keep_completions:
        stats["completion_times"] = completions
    return stats


def run_substrate_bench(n_hosts: int = 32, concurrent_flows: int = 64,
                        total_transfers: int = 1500,
                        tracer=None,
                        topology_cls=Topology,
                        keep_completions: bool = False) -> Dict[str, float]:
    """Run the closed-loop flow churn and report counters + events/sec.

    ``concurrent_flows`` transfer slots each keep one flow in flight;
    the run ends once ``total_transfers`` flows have completed in total.
    ``tracer`` exists mainly for the tracing-overhead benchmark, which
    attaches a disabled tracer to price the instrumentation hooks.
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    topo, clusters = build_substrate_grid(sim, n_hosts=n_hosts,
                                          topology_cls=topology_cls)
    return _churn(sim, topo,
                  lambda slot, seq: _flow_spec(slot, seq, clusters),
                  concurrent_flows, total_transfers, keep_completions)


def run_fanout_bench(n_hosts: int = 32, concurrent_flows: int = 256,
                     total_transfers: int = 1500,
                     topology_cls=Topology,
                     keep_completions: bool = False) -> Dict[str, float]:
    """Closed-loop churn from one head node on the core router to every
    host of the substrate grid (see :func:`_fanout_spec`)."""
    sim = Simulator()
    topo, clusters = build_substrate_grid(sim, n_hosts=n_hosts,
                                          topology_cls=topology_cls)
    topo.attach_host(Host(sim, _HEAD, Architecture(name="bench",
                                                   mflops=1000.0)))
    topo.add_link(_HEAD, "core", bandwidth=_HEAD_BW, latency=_ACCESS_LAT)
    workers = [name for cluster in clusters for name in cluster]
    return _churn(sim, topo,
                  lambda slot, seq: _fanout_spec(slot, seq, workers),
                  concurrent_flows, total_transfers, keep_completions)
