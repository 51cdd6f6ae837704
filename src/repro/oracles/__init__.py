"""Reference oracles for the fast paths, in one registry (DESIGN.md §4.2).

:data:`ORACLES` maps each subsystem to an :class:`Oracle`: a fast and a
reference runner (each takes one case, a dict of keyword arguments), a
comparator (``None`` when the outputs agree, else the first divergence)
and the cases ``repro bench --compare`` runs.
"""

from __future__ import annotations

import json
import math
from time import perf_counter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..experiments.forecast_replay import TRACES, replay_forecasts
from ..experiments.metasched_stream import run_metasched
from ..experiments.scheduler_bench import run_scheduler_bench, schedules_equal
from ..experiments.substrate import run_fanout_bench, run_substrate_bench
from ..microgrid.network import Topology
from .allocator import PerFlowTopology, ReferenceTopology, run_flow_bench
from .forecaster import reference_battery
from .planner import ReferenceMetaScheduler
from .scheduler import REFERENCE_HEURISTICS

__all__ = ["ORACLES", "Oracle", "compare_case"]


class Oracle(NamedTuple):
    fast: Callable[[dict], Any]
    reference: Callable[[dict], Any]
    compare: Callable[[Any, Any], Optional[str]]
    cases: Tuple[dict, ...]


def _compare_schedules(fast: dict, reference: dict) -> Optional[str]:
    for name in fast["heuristics"]:
        if not schedules_equal(fast["schedules"][name],
                               reference["schedules"][name]):
            return f"{name} schedules differ"
    return None


def _compare_flows(fast: dict, reference: dict) -> Optional[str]:
    for key in ("transfers_completed", "bytes_delivered", "sim_seconds"):
        if not math.isclose(fast[key], reference[key], rel_tol=1e-9):
            return f"{key}: {fast[key]!r} != {reference[key]!r}"
    return None


def _compare_flows_exact(fast: dict, reference: dict) -> Optional[str]:
    if fast["reallocations"] != reference["fill_instants"]:
        return (f"reallocations: {fast['reallocations']!r} != "
                f"{reference['fill_instants']!r} fill instants")
    for key in ("transfers_completed", "bytes_delivered", "sim_seconds"):
        if fast[key] != reference[key]:
            return f"{key}: {fast[key]!r} != {reference[key]!r}"
    for seq, (a, b) in enumerate(zip(fast["completion_times"],
                                     reference["completion_times"])):
        if a != b:
            return f"flow {seq} completes at {a!r} != {b!r}"
    return None


#: flow workloads the exact allocator oracle runs, by case["bench"]
_FLOW_BENCHES = {"churn": run_substrate_bench, "fanout": run_fanout_bench}


def _flow_run(case: dict, topology_cls=Topology) -> dict:
    kwargs = dict(case)
    bench = _FLOW_BENCHES[kwargs.pop("bench")]
    return run_flow_bench(bench, topology_cls, keep_completions=True,
                          **kwargs)


def _compare_forecasts(fast: dict, reference: dict) -> Optional[str]:
    for step, (got, want) in enumerate(zip(fast["member_forecasts"],
                                           reference["member_forecasts"])):
        for name, a, b in zip(fast["members"], got, want):
            if a != b:
                return f"{name} at sample {step}: {a!r} != {b!r}"
    for key in ("members", "forecasts", "errors", "best"):
        if fast[key] != reference[key]:
            return f"{key} differ"
    return None


def _compare_reports(fast: dict, reference: dict) -> Optional[str]:
    for key in sorted(set(fast) | set(reference)):
        if (json.dumps(fast.get(key), sort_keys=True)
                != json.dumps(reference.get(key), sort_keys=True)):
            return f"fast and reference reports differ at {key!r}"
    return None


ORACLES: Dict[str, Oracle] = {
    "scheduler": Oracle(
        fast=lambda case: run_scheduler_bench(keep_schedules=True, **case),
        reference=lambda case: run_scheduler_bench(
            keep_schedules=True, registry=REFERENCE_HEURISTICS, **case),
        compare=_compare_schedules,
        cases=(dict(n_tasks=128, n_hosts=16),)),
    "allocator": Oracle(
        fast=lambda case: run_substrate_bench(**case),
        reference=lambda case: run_substrate_bench(
            topology_cls=ReferenceTopology, **case),
        compare=_compare_flows,
        cases=(dict(total_transfers=800),)),
    "allocator-exact": Oracle(
        fast=_flow_run,
        reference=lambda case: _flow_run(case, PerFlowTopology),
        compare=_compare_flows_exact,
        cases=(dict(bench="churn", total_transfers=800),
               dict(bench="fanout", total_transfers=600))),
    "planner": Oracle(
        fast=lambda case: run_metasched(**case).report(),
        reference=lambda case: run_metasched(
            service_cls=ReferenceMetaScheduler, **case).report(),
        compare=_compare_reports,
        cases=(dict(users=4, arrival_rate=0.02, duration=1800.0, seed=0),
               dict(users=6, arrival_rate=0.05, duration=1200.0, seed=3,
                    n_hosts=32))),
    "forecaster": Oracle(
        fast=lambda case: replay_forecasts(**case),
        reference=lambda case: replay_forecasts(
            battery=reference_battery, **case),
        compare=_compare_forecasts,
        cases=tuple(dict(trace=trace) for trace in TRACES)),
}


def compare_case(oracle: Oracle, case: dict
                 ) -> Tuple[float, float, Optional[str]]:
    """(fast wall s, reference wall s, divergence or ``None``)."""
    t0 = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
    fast = oracle.fast(case)
    t1 = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
    reference = oracle.reference(case)
    t2 = perf_counter()  # simlint: ignore[SL001] — benchmark wall time
    return t1 - t0, t2 - t1, oracle.compare(fast, reference)
