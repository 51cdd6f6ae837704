"""Workflow-scheduler throughput benchmark (the §3.1 hot path).

The workload is an EMAN-shaped refinement round — a linear six-stage
DAG whose ``classesbymra`` stage fans out to hundreds of independent
tasks, the worst case for an O(T²·R) list scheduler — scheduled onto a
heterogeneous multi-cluster grid.  With
``registry=REFERENCE_HEURISTICS`` (``repro.oracles.scheduler``) it times
the oracle on the same input, and :func:`schedules_equal` compares them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from ..apps.eman import EmanParameters, eman_refinement_workflow
from ..gis.directory import GridInformationService
from ..microgrid.cluster import Cluster
from ..microgrid.dml import Grid
from ..microgrid.host import Architecture, CacheLevel
from ..nws.service import NetworkWeatherService
from ..scheduler.heuristics import HEURISTICS, Schedule
from ..scheduler.ranking import RankMatrix, build_rank_matrix
from ..scheduler.workflow import Workflow
from ..sim.kernel import Simulator

__all__ = ["build_scheduler_bench_env", "run_scheduler_bench",
           "schedules_equal"]

#: per-cluster sustained speeds (Mflop/s) — heterogeneous on purpose so
#: the completion-time heuristics have real choices to rank.
_CLUSTER_MFLOPS = (200.0, 300.0, 400.0, 600.0)
_GB1 = 125e6
_WAN_BW = 5e6
_WAN_LAT = 0.011


def build_scheduler_bench_env(n_tasks: int = 512, n_hosts: int = 32,
                              ) -> Tuple[Workflow, RankMatrix,
                                         NetworkWeatherService]:
    """(workflow, rank matrix, nws) for one benchmark run.

    ``n_tasks`` sizes the ``classesbymra`` fan-out; ``n_hosts`` spreads
    over four clusters of distinct speeds chained over WAN links.
    """
    if n_hosts < len(_CLUSTER_MFLOPS):
        raise ValueError(f"need at least {len(_CLUSTER_MFLOPS)} hosts")
    sim = Simulator()
    grid = Grid(sim)
    per_cluster = n_hosts // len(_CLUSTER_MFLOPS)
    extra = n_hosts - per_cluster * len(_CLUSTER_MFLOPS)
    clusters = []
    for c, mflops in enumerate(_CLUSTER_MFLOPS):
        size = per_cluster + (1 if c < extra else 0)
        arch = Architecture(
            name=f"bench-{int(mflops)}", mflops=mflops, isa="ia32",
            caches=(CacheLevel(size=512 * 1024),), memory_bytes=1 << 30)
        clusters.append(grid.add_cluster(Cluster(
            sim, grid.topology, f"c{c}", arch=arch, n_hosts=size,
            cores_per_host=1, link_bandwidth=_GB1, link_latency=1e-4,
            site=f"SITE{c}")))
    for a, b in zip(clusters, clusters[1:]):
        grid.topology.add_link(a.switch, b.switch,
                               bandwidth=_WAN_BW, latency=_WAN_LAT)

    nws = NetworkWeatherService(sim, grid)
    gis = GridInformationService()
    gis.register_grid(grid)

    workflow = eman_refinement_workflow(
        EmanParameters(), classesbymra_tasks=n_tasks,
        classalign_tasks=max(n_tasks // 32, 1), project_tasks=4)
    first_host = grid.all_hosts()[0].name
    matrix = build_rank_matrix(workflow, gis, nws,
                               data_sources={"proc3d": [first_host]})
    return workflow, matrix, nws


def schedules_equal(a: Schedule, b: Schedule) -> bool:
    """Placement-for-placement equality (resources and exact times)."""
    if set(a.placements) != set(b.placements):
        return False
    for name, p in a.placements.items():
        q = b.placements[name]
        if (p.resource != q.resource or p.est_start != q.est_start
                or p.est_finish != q.est_finish):
            return False
    return True


def run_scheduler_bench(n_tasks: int = 512, n_hosts: int = 32,
                        heuristics: Sequence[str] = ("min-min", "max-min",
                                                     "sufferage"),
                        keep_schedules: bool = False,
                        env: Optional[Tuple] = None,
                        registry: Mapping[str, Callable[..., Schedule]]
                        = HEURISTICS) -> Dict[str, object]:
    """Time ``registry``'s heuristics (the paper's three by default).

    Returns wall seconds, per-heuristic makespans and the scheduler
    counters (rounds / candidate evaluations / forecast-memo hits) from
    the run.  Pass ``env`` (a :func:`build_scheduler_bench_env` result)
    to reuse one grid across runs so comparisons see identical
    forecasts.
    """
    for name in heuristics:
        if name not in registry:
            raise ValueError(f"unknown heuristic {name!r}")
    if env is None:
        env = build_scheduler_bench_env(n_tasks=n_tasks, n_hosts=n_hosts)
    workflow, matrix, nws = env
    stats = nws.sim.stats
    stats.reset()  # bill only the scheduling work, not env construction

    makespans: Dict[str, float] = {}
    schedules: Dict[str, Schedule] = {}
    # simlint: the harness times *itself* in wall-clock seconds; nothing
    # inside the scheduling run reads these values.
    wall_start = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
    for name in heuristics:
        schedule = registry[name](workflow, matrix, nws)
        makespans[name] = float(schedule.makespan)
        if keep_schedules:
            schedules[name] = schedule
    elapsed = perf_counter() - wall_start  # simlint: ignore[SL001] — benchmark wall time

    snapshot = stats.snapshot()
    result: Dict[str, object] = {
        "engine": "fast",  # --json label, also on oracle runs
        "n_tasks": len(matrix.tasks),
        "n_hosts": len(matrix.resources),
        "heuristics": list(heuristics),
        "wall_seconds": elapsed,
        "makespans": makespans,
        "sched_rounds": int(snapshot["sched_rounds"]),
        "sched_evaluations": int(snapshot["sched_evaluations"]),
        "sched_memo_hits": int(snapshot["sched_memo_hits"]),
        "evaluations_per_sec": (snapshot["sched_evaluations"] / elapsed
                                if elapsed > 0 else float("inf")),
    }
    if keep_schedules:
        result["schedules"] = schedules
    return result
