"""The metascheduler: a multi-tenant grid submission service.

The front door for a stream of heterogeneous jobs competing for one
testbed.  Lifecycle per submission::

    submit -> admission control -> fair-share queue -> plan
           -> (advance reservation | immediate start | backfill)
           -> place via the GrADS workflow scheduler -> execute
           -> release + fair-share charge

Planning is a *rolling re-plan*: every scheduling round (a
submission, a completion, or a reservation's start time arriving)
cancels the un-started plan and rebuilds it in fair-share order
against live GIS/NWS state, while claims (running jobs) are
immutable.  The head of the queue gets an advance reservation at the
earliest window the book's free-host profile allows (DESIGN.md §9.6);
lower-priority jobs may *backfill* — start immediately — only when
their estimated run fits without delaying any reservation ahead of
them, and probing them stops once the profile shows too few free
hosts.  Claims therefore never overlap by construction, and
:meth:`MetaScheduler.audit_conflicts` re-proves it from the claim
history.  The plan must match the linear oracle in
:mod:`repro.oracles.planner` byte for byte.

Everything the service does lands in the ``metasched`` trace lane
(submit/queue/admit/reserve/backfill/start/complete/reject instants
and one span per executed job) and in the always-on ``meta_*``
counters of :class:`~repro.sim.stats.KernelStats`; the ``meta_plan_*``
family (rounds, reservations booked, window starts probed, backlogged
jobs skipped unprobed, estimate memo hits, scheduled wakes) exposes
what the planner did.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..gis.directory import GridInformationService
from ..microgrid.dml import Grid
from ..nws.service import NetworkWeatherService
from ..scheduler.executor import WorkflowExecutor
from ..scheduler.scheduler import GradsWorkflowScheduler
from ..scheduler.workflow import Workflow
from ..sim.events import Event
from ..sim.kernel import Simulator
from .admission import AdmissionController
from .jobs import JobSpec, build_workflow
from .queueing import FairShareQueue
from .reservations import Reservation, ReservationBook

__all__ = ["MetaScheduler", "JobState"]

_EPS = 1e-9

#: terminal job states
_TERMINAL = ("rejected", "completed", "failed")

#: fixed launch allowance in every runtime estimate — so also the
#: shortest window any job asks the planner for
_STARTUP_SECONDS = 10.0


@dataclass
class JobState:
    """Everything the service tracks about one submission."""

    spec: JobSpec
    workflow: Workflow
    status: str = "queued"
    reject_reason: str = ""
    error: str = ""
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    hosts: Tuple[str, ...] = ()
    backfilled: bool = False
    est_seconds: float = 0.0
    #: claims held while running
    claims: List[Reservation] = field(default_factory=list)
    #: the current advance reservation (planning only; rebuilt by
    #: every round)
    planned: List[Reservation] = field(default_factory=list)
    #: last traced plan, to keep re-plans from spamming the trace
    last_plan: Optional[Tuple[float, Tuple[str, ...]]] = None

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.spec.submit_time


class MetaScheduler:
    """Queueing + admission control + reservations over one grid."""

    def __init__(self, sim: Simulator, grid: Grid,
                 gis: GridInformationService, nws: NetworkWeatherService,
                 submission_host: Optional[str] = None,
                 max_queue: Optional[int] = None,
                 max_per_user: Optional[int] = None,
                 min_forecast: float = 0.05,
                 aging_weight: float = 1e-4,
                 reserve_depth: int = 4,
                 safety_factor: float = 2.0,
                 grace_seconds: float = 30.0) -> None:
        if reserve_depth < 1:
            raise ValueError("reserve_depth must be >= 1")
        if safety_factor < 1.0:
            raise ValueError("safety_factor must be >= 1.0")
        if grace_seconds <= 0:
            raise ValueError("grace_seconds must be positive")
        self.sim = sim
        self.grid = grid
        self.gis = gis
        self.nws = nws
        host_names = sorted(h.name for h in grid.all_hosts())
        if not host_names:
            raise ValueError("grid has no hosts")
        self.submission_host = submission_host or host_names[0]
        self.admission = AdmissionController(
            gis, nws, max_queue=max_queue, max_per_user=max_per_user,
            min_forecast=min_forecast)
        self.queue = FairShareQueue(aging_weight=aging_weight)
        self.book = ReservationBook(host_names)
        self.book.stats = sim.stats
        self.scheduler = GradsWorkflowScheduler(gis, nws)
        self.executor = WorkflowExecutor(sim, grid.topology, gis)
        self.reserve_depth = reserve_depth
        self.safety_factor = safety_factor
        self.grace_seconds = grace_seconds
        self.jobs: Dict[str, JobState] = {}
        self.job_order: List[str] = []
        self._expected: Optional[int] = None
        self._done_event: Optional[Event] = None
        self._n_terminal = 0
        #: start instants of armed-but-unfired wake callbacks, sorted
        self._pending_wakes: List[float] = []
        #: queued jobs holding an advance reservation from the last round
        self._holding: List[JobState] = []
        #: queued job -> (candidate prefix, estimated seconds)
        self._est_memo: Dict[str, Tuple[Tuple[str, ...], float]] = {}

    # -- tracing ------------------------------------------------------------
    def _instant(self, name: str, **args) -> None:
        trace = self.sim.trace
        if trace is not None and "metasched" in trace.active:
            trace.instant("metasched", name, **args)

    # -- submission --------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobState:
        """Accept or reject one job at the current simulated time."""
        if spec.name in self.jobs:
            raise ValueError(f"duplicate job name {spec.name!r}")
        state = JobState(spec=spec, workflow=build_workflow(spec))
        self.jobs[spec.name] = state
        self.job_order.append(spec.name)
        stats = self.sim.stats
        stats.meta_submitted += 1
        self._instant("submit", job=spec.name, user=spec.user,
                      kind=spec.kind, n_hosts=spec.n_hosts)
        admitted, reason = self.admission.admit(
            spec, len(self.queue), self.queue.user_queued(spec.user))
        if not admitted:
            state.status = "rejected"
            state.reject_reason = reason
            stats.meta_rejected += 1
            self._n_terminal += 1
            self._instant("reject", job=spec.name, reason=reason)
            self._check_all_done()
            return state
        self._instant("admit", job=spec.name)
        self.queue.push(spec)
        self._instant("queue", job=spec.name, depth=len(self.queue))
        self._round()
        return state

    def run_stream(self, specs: Sequence[JobSpec]) -> Event:
        """Submit each spec at its arrival time; the returned event
        triggers once every job has reached a terminal state."""
        ordered = sorted(specs, key=lambda s: (s.submit_time, s.name))
        self._expected = len(ordered)
        self._done_event = self.sim.event("metasched:done")
        if not ordered:
            self._done_event.succeed(0)
            return self._done_event
        self.sim.process(self._feeder(ordered), name="metasched:arrivals")
        return self._done_event

    def _feeder(self, ordered: Sequence[JobSpec]):
        for spec in ordered:
            delay = spec.submit_time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.submit(spec)

    # -- planning rounds ----------------------------------------------------
    def _round(self) -> None:
        """Bring the un-started plan up to date with live resource state."""
        now = self.sim.now
        self.sim.stats.meta_plan_rounds += 1
        self._plan(now, self.queue.ordered(now))
        self._schedule_wake(now)

    def _plan(self, now: float, ordered: Sequence[JobSpec]) -> None:
        """Cancel every advance reservation, then re-plan in order."""
        stats = self.sim.stats
        book = self.book
        grace = self.grace_seconds
        for state in self._holding:
            if state.planned:
                book.release_block(state.planned, now)
                state.planned = []
        holding: List[JobState] = []
        self._holding = holding
        # usable hosts, resolved once per ISA per round
        round_cands: Dict[Optional[str], Tuple[str, ...]] = {}
        blocked = False
        # hosts any job could get now, once the reservation depth is
        # exhausted (no estimate is shorter than the startup allowance)
        bound: Optional[int] = None
        for pos, spec in enumerate(ordered):
            backlog = len(holding) >= self.reserve_depth
            if backlog:
                # Only "start now or stay blocked" is left (``blocked``
                # is set) and a failed probe changes nothing, so a job
                # needing more hosts than the bound is skipped; at zero
                # no remaining job can start.
                if bound is None:
                    bound = book.free_bound(now, _STARTUP_SECONDS, grace)
                if spec.n_hosts > bound:
                    if not bound:
                        stats.meta_plan_probes_skipped += len(ordered) - pos
                        break
                    stats.meta_plan_probes_skipped += 1
                    continue
            cand = round_cands.get(spec.isa)
            if cand is None:
                cand = round_cands[spec.isa] = tuple(
                    self.admission.usable_hosts(spec))
            if len(cand) < spec.n_hosts:
                blocked = True
                continue
            state = self.jobs[spec.name]
            est = self._estimate(spec, cand)
            if backlog:
                free = book.free_now(spec.n_hosts, est, cand, now, grace)
                if free is not None:
                    self._start_job(state, free, est, backfilled=True)
                    bound = None
                continue
            window = book.find_window(spec.n_hosts, est, now, cand, now,
                                      grace)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
                continue
            blocked = True
            state.planned = book.reserve_block(
                spec.name, hosts, start, start + est)
            holding.append(state)
            stats.meta_plan_rebuilt += 1
            self._note_plan(state, start, hosts, est)

    def _note_plan(self, state: JobState, start: float,
                   hosts: Sequence[str], est: float) -> None:
        """Count/trace a reservation only when the plan actually moved."""
        plan = (start, tuple(hosts))
        if plan != state.last_plan:
            state.last_plan = plan
            self.sim.stats.meta_reservations += 1
            self._instant("reserve", job=state.spec.name,
                          start=start, end=start + est,
                          hosts=",".join(hosts))

    def _schedule_wake(self, now: float) -> None:
        """Arm a wake at the earliest planned start — the first of the
        reservations this round made, from the book's start index —
        unless a pending wake at or before it will already trigger a
        round.  Fired wakes remove themselves from the pending list, so
        a stale past instant can never force a redundant re-arm."""
        earliest = self.book.next_reserved_start(now)
        if earliest is None:
            return
        pending = self._pending_wakes
        if pending and pending[0] <= earliest + _EPS:
            return
        insort(pending, earliest)
        self.sim.stats.meta_plan_wakes += 1
        self.sim.call_at(earliest, lambda when=earliest: self._wake(when))

    def _wake(self, when: float) -> None:
        pending = self._pending_wakes
        i = bisect_left(pending, when)
        if i < len(pending) and pending[i] == when:  # simlint: ignore[SL005] — removes the exact float armed earlier, no arithmetic in between
            del pending[i]
        self._round()

    def _estimate(self, spec: JobSpec,
                  candidates: Tuple[str, ...]) -> float:
        """Memoized :meth:`_estimate_seconds` — the estimate is a pure
        function of the job and the candidate prefix that sizes it.
        One entry per queued job; starting the job drops it."""
        prefix = candidates[:spec.n_hosts]
        memo = self._est_memo.get(spec.name)
        if memo is not None and memo[0] == prefix:
            self.sim.stats.meta_plan_estimate_memo_hits += 1
            return memo[1]
        est = self._estimate_seconds(spec, candidates)
        self._est_memo[spec.name] = (prefix, est)
        return est

    def _estimate_seconds(self, spec: JobSpec,
                          candidates: Sequence[str]) -> float:
        """Pessimistic runtime bound used to size reservations."""
        records = [self.gis.lookup(name)
                   for name in candidates[:spec.n_hosts]]
        speed = min(record.mflops for record in records)
        workflow = self.jobs[spec.name].workflow
        total = workflow.total_mflop()
        critical = workflow.critical_path_mflop()
        parallel = max(total - critical, 0.0) / (speed * spec.n_hosts)
        return (self.safety_factor * (critical / speed + parallel)
                + _STARTUP_SECONDS)

    # -- execution ---------------------------------------------------------
    def _start_job(self, state: JobState, hosts: Sequence[str], est: float,
                   backfilled: bool) -> None:
        spec = state.spec
        now = self.sim.now
        self.queue.remove(spec.name)
        self._est_memo.pop(spec.name, None)
        if state.planned:  # safety net; planners release before starting
            self.book.release_block(state.planned, now)
            state.planned = []
        state.claims = self.book.reserve_block(
            spec.name, hosts, now, now + est)
        self.book.claim_block(state.claims, now)
        state.status = "running"
        state.started_at = now
        state.hosts = tuple(hosts)
        state.est_seconds = est
        state.backfilled = backfilled
        stats = self.sim.stats
        stats.meta_started += 1
        wait = now - spec.submit_time
        stats.meta_queue_wait_seconds += wait
        if backfilled:
            stats.meta_backfilled += 1
            self._instant("backfill", job=spec.name,
                          hosts=",".join(hosts))
        self._instant("start", job=spec.name, user=spec.user,
                      kind=spec.kind, hosts=",".join(hosts),
                      queue_wait=wait)
        entry = [component.name
                 for component in state.workflow.components()
                 if not state.workflow.predecessors(component.name)]
        data_sources = {name: [self.submission_host] for name in entry}
        try:
            result = self.scheduler.schedule(
                state.workflow, data_sources=data_sources,
                resources=[self.gis.lookup(name) for name in hosts])
            event = self.executor.execute(state.workflow, result.best)
        except Exception as exc:
            self._finish(state, ok=False,
                         error=f"{type(exc).__name__}: {exc}")
            return
        event.add_callback(
            lambda ev, s=state: self._on_job_event(s, ev))

    def _on_job_event(self, state: JobState, event: Event) -> None:
        if event.ok:
            self._finish(state, ok=True)
        else:
            event.defused = True
            self._finish(state, ok=False,
                         error=f"{type(event.value).__name__}: "
                               f"{event.value}")
        self._round()

    def _finish(self, state: JobState, ok: bool, error: str = "") -> None:
        now = self.sim.now
        self.book.release_block(state.claims, now)
        state.finished_at = now
        state.status = "completed" if ok else "failed"
        state.error = error
        self._n_terminal += 1
        elapsed = now - (state.started_at if state.started_at is not None
                         else now)
        cpu_seconds = elapsed * len(state.hosts)
        self.queue.charge(state.spec.user, cpu_seconds)
        stats = self.sim.stats
        stats.meta_cpu_seconds += cpu_seconds
        if ok:
            stats.meta_completed += 1
        trace = self.sim.trace
        if trace is not None and "metasched" in trace.active:
            trace.instant("metasched", "complete", job=state.spec.name,
                          ok=ok, elapsed=elapsed)
            if state.started_at is not None:
                trace.complete("metasched", f"job:{state.spec.name}",
                               ts=state.started_at, dur=elapsed,
                               user=state.spec.user, kind=state.spec.kind,
                               hosts=",".join(state.hosts),
                               backfilled=state.backfilled)
        self._check_all_done()

    # -- bookkeeping -------------------------------------------------------
    def _check_all_done(self) -> None:
        """O(1): a maintained terminal counter replaces the per-call
        scan over every job state."""
        if self._done_event is None or self._done_event.triggered:
            return
        if self._expected is None:
            return
        if (len(self.jobs) >= self._expected
                and self._n_terminal == len(self.jobs)):
            self._done_event.succeed(self._n_terminal)

    def audit_conflicts(self) -> List[str]:
        """Claim-overlap violations across all hosts; must be empty."""
        return self.book.audit()

    def states(self) -> List[JobState]:
        """Job states in submission order."""
        return [self.jobs[name] for name in self.job_order]
