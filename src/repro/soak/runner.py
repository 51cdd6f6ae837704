"""Execute one soak scenario and audit it.

:func:`run_scenario` materializes a :class:`ScenarioSpec` onto the
Figure 3 testbed: the metascheduler serves the sampled job stream
while host crashes, load bursts, topology churn, an optional
swap-rescheduled N-body run, an optional SRS-checkpointed QR run, and
an optional Store/Semaphore client population all happen on the same
simulator.  Checkpoint auditors run between time slices; final
auditors run once every lane has quiesced.

Lane failures are *data*, not crashes: every lane-completion event
gets a defusing callback, so an application legitimately killed by a
fault is recorded in the lane status instead of aborting the run.
Anything that still escapes ``sim.run`` (an exception raised from a
kernel callback, say) is caught by the slice loop and reported through
the ``unhandled-error`` invariant — that is precisely the class of bug
this harness exists to flush out.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..appmanager.manager import GradsEnvironment
from ..apps.nbody import NBodySimulation
from ..apps.qr import QrBenchmark
from ..experiments.metasched_stream import _ENGINE_COUNTER_PREFIX, _job_row
from ..gis.directory import GridInformationService
from ..metasched import MetaScheduler
from ..metasched.jobs import JobSpec
from ..microgrid.failures import ScheduledFailure
from ..microgrid.loadgen import ScheduledLoad
from ..nws.service import NetworkWeatherService
from ..microgrid.testbed import fig3_testbed
from ..oracles import ORACLES
from ..oracles.planner import ReferenceMetaScheduler
from ..rescheduling.swapping import SwapRescheduler
from ..sim import AnyOf, Interrupt, Semaphore, Simulator, Store
from ..trace.tracer import Tracer
from .invariants import (Violation, run_checkpoint_auditors,
                         run_final_auditors)
from .scenario import SUBMISSION_HOST, ScenarioSpec

__all__ = ["ScenarioOutcome", "SoakContext", "run_scenario",
           "run_with_checks"]

#: extra virtual time past ``spec.duration`` before giving up on quiesce
_DEADLINE_SLACK = 4000.0

#: stop collecting after this many escaped exceptions (a broken
#: callback can re-raise on every subsequent event)
_MAX_CAUGHT_ERRORS = 50


class LaneWatch:
    """Observes a lane's completion events, defusing failures.

    ``ignore_interrupts`` is for the services lane, whose clients are
    killed *on purpose*: a :class:`~repro.sim.Interrupt` death is part
    of the scenario, any other exception is a harness finding.
    """

    def __init__(self, events, ignore_interrupts: bool = False) -> None:
        self.events = list(events)
        self.failures: List[str] = []
        self._ignore_interrupts = ignore_interrupts
        for ev in self.events:
            ev.add_callback(self._note)

    def _note(self, ev) -> None:
        if not ev.ok:
            ev.defused = True
            if self._ignore_interrupts and isinstance(ev.value, Interrupt):
                return
            self.failures.append(f"{type(ev.value).__name__}: {ev.value}")

    @property
    def complete(self) -> bool:
        return all(ev.triggered for ev in self.events)

    @property
    def status(self) -> str:
        if not self.events:
            return "absent"
        if not self.complete:
            return "unfinished"
        if self.failures:
            return "failed: " + self.failures[0]
        return "ok"


class ServicesLane:
    """A Store/Semaphore client population under scheduled kills.

    Producers put items, consumers get them (with a timeout-and-
    ``cancel_get`` escape so a starved consumer eventually leaves),
    workers cycle acquire/hold/release.  The accounting ledgers are
    incremented from event *callbacks*, not from the resumed process:
    an item accepted (or a unit granted) in the same instant its owner
    is killed is still counted exactly once, so the conservation
    invariant has no same-instant blind spot.

    Client delays use non-round increments so they can never collide
    with the 6-decimal kill grid the scenario sampler draws from.
    """

    def __init__(self, sim: Simulator, cfg: dict) -> None:
        self.sim = sim
        self.store = Store(sim, capacity=cfg["capacity"])
        self.semaphore = Semaphore(sim, cfg["count"])
        self.accepted = 0
        self.consumed = 0
        self.acquired = 0
        self.released = 0
        self.procs: Dict[str, object] = {}
        for i in range(cfg["producers"]):
            name = f"svc-producer-{i}"
            self.procs[name] = sim.process(
                self._producer(i, cfg["items_per_producer"]), name=name)
        for i in range(cfg["consumers"]):
            name = f"svc-consumer-{i}"
            self.procs[name] = sim.process(self._consumer(i), name=name)
        for i in range(cfg["workers"]):
            name = f"svc-worker-{i}"
            self.procs[name] = sim.process(self._worker(i), name=name)
        for kill in cfg["kills"]:
            victim = self.procs.get(kill["victim"])
            if victim is not None:
                sim.call_at(kill["at"],
                            functools.partial(self._kill, victim))

    @staticmethod
    def _kill(proc) -> None:
        if not proc.triggered:
            proc.kill()

    def _count_accept(self, ev) -> None:
        if ev.ok:
            self.accepted += 1

    def _count_get(self, ev) -> None:
        if ev.ok:
            self.consumed += 1

    def _count_acquire(self, ev) -> None:
        if ev.ok:
            self.acquired += 1

    def _producer(self, i: int, n_items: int):
        yield self.sim.timeout(1.0 + 0.3183098861 * i)
        for _k in range(n_items):
            put_ev = self.store.put(("item", i, _k))
            put_ev.add_callback(self._count_accept)
            if not put_ev.triggered:
                patience = self.sim.timeout(60.0)
                yield AnyOf(self.sim, [put_ev, patience])
                if not put_ev.triggered:
                    # Withdraw the queued deposit.  A False return with
                    # a triggered event means acceptance raced the
                    # timeout — the counting callback already saw it.
                    if not self.store.cancel_put(put_ev):
                        if put_ev.triggered:
                            yield self.sim.timeout(
                                2.0 + 0.2718281828 * i)
                            continue
                    return  # store wedged: give up, item never accepted
            yield self.sim.timeout(2.0 + 0.2718281828 * i)

    def _consumer(self, i: int):
        yield self.sim.timeout(1.5 + 0.4142135623 * i)
        misses = 0
        while misses < 3:
            get_ev = self.store.get()
            get_ev.add_callback(self._count_get)
            if not get_ev.triggered:
                patience = self.sim.timeout(30.0)
                yield AnyOf(self.sim, [get_ev, patience])
            if get_ev.triggered:
                misses = 0
                yield self.sim.timeout(3.0 + 0.1414213562 * i)
            elif not self.store.cancel_get(get_ev) and get_ev.triggered:
                # Delivery raced the timeout; the item is ours (and the
                # counting callback already claimed it).
                misses = 0
                yield self.sim.timeout(3.0 + 0.1414213562 * i)
            else:
                misses += 1

    def _worker(self, i: int):
        yield self.sim.timeout(2.0 + 0.5772156649 * i)
        for _round in range(3 + i % 3):
            req = self.semaphore.acquire()
            req.add_callback(self._count_acquire)
            granted = req.triggered
            if not granted:
                patience = self.sim.timeout(90.0)
                yield AnyOf(self.sim, [req, patience])
                granted = req.triggered
                if not granted and not self.semaphore.cancel_wait(req):
                    granted = req.triggered  # grant raced the timeout
            if not granted:
                return  # semaphore wedged (a lost unit shows up in the
                # conservation audit as available < count)
            try:
                yield self.sim.timeout(4.0 + 0.3010299957 * i)
            finally:
                # Balances the ledger even when a kill lands mid-hold.
                self.semaphore.release()
                self.released += 1
            yield self.sim.timeout(2.0 + 0.4342944819 * i)


class SwapLane:
    """An N-body run over an over-provisioned pool with a swap daemon."""

    def __init__(self, sim: Simulator, grid, nws, cfg: dict) -> None:
        self.sim = sim
        # Active set starts on the slow PII-450s with the faster 2-core
        # PIII-933s idle in the inactive set, so every swap scenario
        # produces real swap decisions and cross-site state transfers
        # (not just a daemon that never finds an improvement).
        pool = (grid.clusters["uiuc"].hosts[5:]
                + grid.clusters["utk"].hosts[1:]
                + grid.clusters["uiuc"].hosts[4:5])
        self.app = NBodySimulation(sim, grid.topology, pool, active_n=3,
                                   n_bodies=cfg["n_bodies"],
                                   n_iterations=cfg["n_iterations"])
        self.rescheduler = SwapRescheduler(sim, self.app.job, nws,
                                           policy=cfg["policy"],
                                           period=cfg["period"],
                                           improvement=cfg["improvement"])
        self.rescheduler.start()
        self.stop_at = cfg.get("stop_at")
        self.stopped_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        if self.stop_at is not None:
            sim.call_at(self.stop_at, self._stop)
        self.done = self.app.launch()
        self.done.add_callback(self._finished)

    def _stop(self) -> None:
        if self.stopped_at is None and self.finished_at is None:
            self.stopped_at = self.sim.now
            self.rescheduler.stop()

    def _finished(self, _ev) -> None:
        self.finished_at = self.sim.now
        self.rescheduler.stop()


class SrsLane:
    """A managed SRS-checkpointed QR run on the same grid."""

    def __init__(self, sim: Simulator, grid, cfg: dict) -> None:
        env = GradsEnvironment(sim, grid, submission_host=SUBMISSION_HOST)
        initial = grid.clusters["utk"].host_names()[:3]
        run, monitor, rescheduler = env.managed_qr(
            QrBenchmark(n=cfg["n"], nb=200),
            initial_hosts=initial,
            checkpoint_every=cfg["checkpoint_every"],
            stable_storage=True,
            migration_timeout_seconds=600.0,
            blacklist_seconds=600.0)
        self.run = run
        self.monitor = monitor
        self.rescheduler = rescheduler
        self.done = run.start()


@dataclass
class SoakContext:
    """Everything the invariant auditors may inspect."""

    spec: ScenarioSpec
    sim: Simulator
    grid: object
    topology: object
    service: MetaScheduler
    lanes: Dict[str, LaneWatch]
    services_lane: Optional[ServicesLane] = None
    swap_lane: Optional[SwapLane] = None
    srs_lane: Optional[SrsLane] = None
    tracer: object = None
    errors: List[str] = field(default_factory=list)
    quiesced: bool = False


@dataclass
class ScenarioOutcome:
    """One executed scenario, reduced to planner-independent data."""

    spec: ScenarioSpec
    finished_at: float
    quiesced: bool
    lanes: Dict[str, str]
    violations: List[Violation]
    jobs: List[dict]
    counters: Dict[str, float]

    def report(self) -> dict:
        """Deterministic, planner-independent scenario report."""
        return {
            "index": self.spec.index,
            "seed": self.spec.seed,
            "duration": self.spec.duration,
            "finished_at": round(self.finished_at, 9),
            "quiesced": self.quiesced,
            "lanes": self.lanes,
            "jobs": self.jobs,
            "counters": self.counters,
            "violations": [v.to_dict() for v in self.violations],
        }


def _apply_link(topology, op: dict) -> None:
    """Apply one topology-churn operation (idempotent on replay)."""
    if op["via"]:
        if op["via"] not in topology:
            topology.add_node(op["via"])
        topology.add_link(op["a"], op["via"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"] / 2.0)
        topology.add_link(op["via"], op["b"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"] / 2.0)
    else:
        topology.add_link(op["a"], op["b"],
                          bandwidth=op["bandwidth"],
                          latency=op["latency"])


def _horizon(spec: ScenarioSpec) -> float:
    """Earliest time by which every scheduled disturbance has played
    out — quiescing before this would skip the interesting part."""
    times = [0.0]
    times += [fault["recover_at"] for fault in spec.faults]
    times += [burst["until"] for burst in spec.bursts]
    times += [op["at"] for op in spec.links]
    if spec.services:
        times += [kill["at"] for kill in spec.services["kills"]]
    if spec.swap and spec.swap.get("stop_at") is not None:
        times.append(spec.swap["stop_at"])
    return max(times) + 1.0


def run_scenario(spec: ScenarioSpec, tracer=None,
                 service_cls=MetaScheduler) -> ScenarioOutcome:
    """Run one scenario to quiesce (or deadline) and audit it.

    ``service_cls`` is the metascheduler to build; ``engine_check``
    passes the planner oracle's reference subclass.
    """
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    grid = fig3_testbed(sim)
    topology = grid.topology
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, cpu_period=10.0,
                                deploy_network_sensors=False)
    service = service_cls(sim, grid, gis, nws)

    lanes: Dict[str, LaneWatch] = {}
    specs = [JobSpec(name=job["name"], user=job["user"], kind=job["kind"],
                     submit_time=job["submit_time"],
                     n_hosts=job["n_hosts"], size=job["size"])
             for job in spec.jobs]
    lanes["metasched"] = (LaneWatch([service.run_stream(specs)])
                          if specs else LaneWatch([]))

    hosts = {host.name: host for host in grid.all_hosts()}
    for fault in spec.faults:
        ScheduledFailure(host=hosts[fault["host"]], at=fault["at"],
                         recover_at=fault["recover_at"]).install(sim)
    for burst in spec.bursts:
        ScheduledLoad(host=hosts[burst["host"]], at=burst["at"],
                      nprocs=burst["nprocs"],
                      until=burst["until"]).install(sim)
    for op in spec.links:
        sim.call_at(op["at"], functools.partial(_apply_link, topology, op))

    services_lane = ServicesLane(sim, spec.services) if spec.services \
        else None
    lanes["services"] = (LaneWatch(list(services_lane.procs.values()),
                                   ignore_interrupts=True)
                         if services_lane else LaneWatch([]))
    swap_lane = SwapLane(sim, grid, nws, spec.swap) if spec.swap else None
    lanes["swap"] = (LaneWatch([swap_lane.done]) if swap_lane
                     else LaneWatch([]))
    srs_lane = SrsLane(sim, grid, spec.srs) if spec.srs else None
    lanes["srs"] = (LaneWatch([srs_lane.done]) if srs_lane
                    else LaneWatch([]))

    ctx = SoakContext(spec=spec, sim=sim, grid=grid, topology=topology,
                      service=service, lanes=lanes,
                      services_lane=services_lane, swap_lane=swap_lane,
                      srs_lane=srs_lane, tracer=tracer)

    violations: List[Violation] = []
    deadline = spec.duration + _DEADLINE_SLACK
    horizon = _horizon(spec)
    next_checkpoint = spec.checkpoint_every
    while True:
        target = min(next_checkpoint, deadline)
        try:
            sim.run(until=target)
        except Exception as exc:  # harness finding, not a crash
            ctx.errors.append(f"{type(exc).__name__}: {exc}")
            if len(ctx.errors) >= _MAX_CAUGHT_ERRORS:
                break
            continue
        violations.extend(run_checkpoint_auditors(ctx))
        if (sim.now >= horizon
                and all(watch.complete for watch in lanes.values())):
            ctx.quiesced = True
            break
        if target >= deadline:
            break
        next_checkpoint = target + spec.checkpoint_every

    violations.extend(run_final_auditors(ctx))

    counters = {name: value
                for name, value in sorted(sim.stats.snapshot().items())
                if name.startswith("meta_")
                and not name.startswith(_ENGINE_COUNTER_PREFIX)}
    return ScenarioOutcome(
        spec=spec, finished_at=sim.now,
        quiesced=ctx.quiesced,
        lanes={name: lanes[name].status for name in sorted(lanes)},
        violations=violations,
        jobs=[_job_row(state) for state in service.states()],
        counters=counters)


def run_with_checks(spec: ScenarioSpec) -> dict:
    """Run a scenario with its declared cross-checks; return the
    per-scenario report dict.

    ``spec.trace_check`` records and validates a Chrome trace;
    ``spec.engine_check`` re-runs the scenario under the reference
    planner and appends an ``engine-divergence`` violation if the
    planner oracle's comparator finds the reports differ.
    """
    tracer = Tracer() if spec.trace_check else None
    base = run_scenario(spec, tracer=tracer).report()
    report = dict(base)
    report["engine_agreement"] = None
    if spec.engine_check:
        ref_tracer = Tracer() if spec.trace_check else None
        ref = run_scenario(spec, tracer=ref_tracer,
                           service_cls=ReferenceMetaScheduler).report()
        divergence = ORACLES["planner"].compare(base, ref)
        report["engine_agreement"] = divergence is None
        if divergence is not None:
            report["violations"] = list(report["violations"]) + [{
                "invariant": "engine-divergence",
                "time": report["finished_at"],
                "detail": divergence,
            }]
    return report
