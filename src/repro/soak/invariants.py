"""Cross-subsystem invariant auditors for the soak harness.

Each auditor is a pure inspection ``fn(ctx) -> List[str]`` over a
:class:`~repro.soak.runner.SoakContext`; a non-empty return is a list
of human-readable violation details.  Auditors never mutate simulation
state, so running them at a checkpoint cannot change what happens
afterwards (a soak run with checkpoints every 10 s and every 300 s
must produce the same trajectory).

Two registries exist: :data:`CHECKPOINT_AUDITORS` run while the
scenario is still in flight (safety properties that must hold at every
instant), and :data:`FINAL_AUDITORS` run once the scenario has
quiesced (conservation/cleanup properties that are only required at
rest).  Registry iteration order is insertion order, so violation
lists are deterministic.

The ``marker-canary`` auditor is deliberately synthetic: it fires when
two scenario markers sum to 100.  It gives the shrinker tests and the
CI ``soak-smoke`` job a *permanent* known-violation fixture that keeps
violating after every real bug is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..trace.export import chrome_trace, validate_chrome

__all__ = ["Violation", "CHECKPOINT_AUDITORS", "FINAL_AUDITORS",
           "run_checkpoint_auditors", "run_final_auditors"]

#: relative slack for capacity comparisons (allocations are floats)
_REL_TOL = 1e-6
_ABS_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant violation, timestamped at detection."""

    invariant: str
    time: float
    detail: str

    def to_dict(self) -> dict:
        return {"invariant": self.invariant, "time": self.time,
                "detail": self.detail}


# -- checkpoint auditors (safety: must hold at every instant) ----------------

def _flow_capacity(ctx) -> List[str]:
    """No directed edge carries more allocated bandwidth than it has."""
    out = []
    for eid, (load, cap) in enumerate(ctx.topology.edge_loads()):
        if load > cap * (1.0 + _REL_TOL) + _ABS_TOL:
            out.append(f"edge {eid}: allocated {load:.6f} B/s over "
                       f"capacity {cap:.6f} B/s")
    return out


def _host_hygiene(ctx) -> List[str]:
    """Dead hosts run nothing; live hosts never exceed their cores."""
    out = []
    for host in ctx.grid.all_hosts():
        if not host.alive:
            if host._tasks:
                out.append(f"{host.name}: dead host still has "
                           f"{len(host._tasks)} tasks")
            continue
        total = sum(task.rate for task in host._tasks)
        limit = host.speed * host.cores
        if total > limit * (1.0 + _REL_TOL) + _ABS_TOL:
            out.append(f"{host.name}: task rates sum to {total:.3f} "
                       f"Mflop/s over the {limit:.3f} Mflop/s machine")
    return out


def _resource_bounds(ctx) -> List[str]:
    """Store stays within capacity; semaphore units stay in [0, count]."""
    lane = ctx.services_lane
    if lane is None:
        return []
    out = []
    store, sem = lane.store, lane.semaphore
    if store.capacity is not None and len(store) > store.capacity:
        out.append(f"store holds {len(store)} items over capacity "
                   f"{store.capacity}")
    if not 0 <= sem.available <= sem.count:
        out.append(f"semaphore has {sem.available} units outside "
                   f"[0, {sem.count}]")
    return out


def _reservation_calendar(ctx) -> List[str]:
    """The metascheduler's advance-reservation calendar audits clean."""
    return list(ctx.service.audit_conflicts())


# -- final auditors (conservation/cleanup: required once quiesced) -----------

def _quiesce(ctx) -> List[str]:
    """Every lane drains before the (generous) deadline.  A scenario
    that cannot quiesce has stranded processes somewhere — historically
    a unit or item handed to a dead waiter."""
    if ctx.quiesced:
        return []
    stuck = sorted(name for name, lane in ctx.lanes.items()
                   if not lane.complete)
    return [f"deadline hit before quiesce; unfinished lanes: "
            f"{', '.join(stuck) or 'none'}"]


def _unhandled_errors(ctx) -> List[str]:
    """Nothing escaped the kernel: every exception the slice loop caught
    is a bug (lane failures are defused and recorded, not raised)."""
    return list(ctx.errors)


def _stats_consistency(ctx) -> List[str]:
    """``sim.stats`` meta counters agree with the per-job state rows."""
    lane = ctx.lanes.get("metasched")
    if lane is None or not lane.complete:
        return []
    rows = [state for state in ctx.service.states()]
    counters = ctx.sim.stats.snapshot()
    expected = {
        "meta_submitted": len(rows),
        "meta_rejected": sum(1 for s in rows if s.status == "rejected"),
        "meta_started": sum(1 for s in rows if s.started_at is not None),
        "meta_completed": sum(1 for s in rows if s.status == "completed"),
        "meta_backfilled": sum(1 for s in rows if s.backfilled),
    }
    out = []
    for name in sorted(expected):
        if counters.get(name, 0) != expected[name]:
            out.append(f"{name}={counters.get(name, 0):g} but job rows "
                       f"imply {expected[name]}")
    return out


def _services_conservation(ctx) -> List[str]:
    """Store items and semaphore units are conserved across kills.

    Gated on the lane having fully drained (every client process dead):
    accepted items are either consumed or still in the store, every
    acquire was released (workers release in ``finally`` even when
    killed mid-hold), and all units are back in the pool.
    """
    lane = ctx.services_lane
    if lane is None or not ctx.lanes["services"].complete:
        return []
    out = []
    in_store = len(lane.store)
    if lane.accepted != lane.consumed + in_store:
        out.append(f"store ledger broken: accepted {lane.accepted} != "
                   f"consumed {lane.consumed} + {in_store} in store")
    if lane.acquired != lane.released:
        out.append(f"semaphore ledger broken: acquired {lane.acquired} "
                   f"!= released {lane.released}")
    if lane.semaphore.available != lane.semaphore.count:
        out.append(f"semaphore drained to {lane.semaphore.available}/"
                   f"{lane.semaphore.count} units with no holders left")
    return out


def _services_health(ctx) -> List[str]:
    """Service clients only ever die by scheduled kill, never by bug."""
    lane = ctx.lanes.get("services")
    if lane is None:
        return []
    return [f"service process failed: {err}" for err in lane.failures]


def _swap_hygiene(ctx) -> List[str]:
    """A finished job holds no queued swaps; a stopped rescheduler and a
    finished job never produce further swap decisions."""
    lane = ctx.swap_lane
    if lane is None:
        return []
    out = []
    if lane.done.triggered and lane.app.job._pending_swaps:
        out.append(f"{len(lane.app.job._pending_swaps)} pending swaps "
                   f"leaked past job completion")
    for decision in lane.rescheduler.decisions:
        if (lane.stopped_at is not None
                and decision.time > lane.stopped_at + _ABS_TOL):
            out.append(f"swap decision at t={decision.time} after "
                       f"stop() at t={lane.stopped_at}")
        if (lane.finished_at is not None
                and decision.time > lane.finished_at + _ABS_TOL):
            out.append(f"swap decision at t={decision.time} after the "
                       f"job finished at t={lane.finished_at}")
    return out


def _srs_hygiene(ctx) -> List[str]:
    """No ``_migrating``/``_Inflight`` tokens survive the managed run."""
    lane = ctx.srs_lane
    if lane is None or not ctx.lanes["srs"].complete:
        return []
    out = []
    if lane.rescheduler._migrating:
        out.append("leaked _migrating tokens: "
                   + ", ".join(sorted(lane.rescheduler._migrating)))
    if lane.rescheduler._inflight:
        out.append("leaked _Inflight records: "
                   + ", ".join(sorted(lane.rescheduler._inflight)))
    return out


def _flows_drained(ctx) -> List[str]:
    """At rest with every lane healthy, no flow is still in flight."""
    if not ctx.quiesced:
        return []
    if any(lane.failures for lane in ctx.lanes.values()):
        return []  # a crashed app can legitimately strand a transfer
    n = ctx.topology.active_flows
    if n:
        return [f"{n} flows still active after quiesce"]
    return []


def _trace_wellformed(ctx) -> List[str]:
    """The recorded Chrome trace passes ``validate_chrome``."""
    if ctx.tracer is None:
        return []
    return validate_chrome(chrome_trace(ctx.tracer))


def _marker_canary(ctx) -> List[str]:
    """Synthetic known-violation hook: two markers summing to 100."""
    markers = ctx.spec.markers
    out = []
    for i in range(len(markers)):
        for j in range(i + 1, len(markers)):
            if markers[i] + markers[j] == 100:
                out.append(f"markers[{i}]={markers[i]} and markers[{j}]="
                           f"{markers[j]} sum to 100")
    return out


CHECKPOINT_AUDITORS: Dict[str, Callable] = {
    "flow-capacity": _flow_capacity,
    "host-hygiene": _host_hygiene,
    "resource-bounds": _resource_bounds,
    "reservation-calendar": _reservation_calendar,
}

FINAL_AUDITORS: Dict[str, Callable] = {
    "quiesce": _quiesce,
    "reservation-calendar": _reservation_calendar,
    "unhandled-error": _unhandled_errors,
    "stats-consistency": _stats_consistency,
    "services-conservation": _services_conservation,
    "services-health": _services_health,
    "swap-hygiene": _swap_hygiene,
    "srs-hygiene": _srs_hygiene,
    "flows-drained": _flows_drained,
    "trace-wellformed": _trace_wellformed,
    "marker-canary": _marker_canary,
}


def _run(registry: Dict[str, Callable], ctx) -> List[Violation]:
    out = []
    for name, auditor in registry.items():
        for detail in auditor(ctx):
            out.append(Violation(invariant=name,
                                 time=round(ctx.sim.now, 9),
                                 detail=detail))
    return out


def run_checkpoint_auditors(ctx) -> List[Violation]:
    return _run(CHECKPOINT_AUDITORS, ctx)


def run_final_auditors(ctx) -> List[Violation]:
    return _run(FINAL_AUDITORS, ctx)
