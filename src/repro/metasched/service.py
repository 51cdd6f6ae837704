"""The metascheduler: a multi-tenant grid submission service.

The front door for a stream of heterogeneous jobs competing for one
testbed.  Lifecycle per submission::

    submit -> admission control -> fair-share queue -> plan
           -> (advance reservation | immediate start | backfill)
           -> place via the GrADS workflow scheduler -> execute
           -> release + fair-share charge

Planning is a *rolling re-plan*: at every scheduling round (triggered
by a submission, a completion, or a reservation's start time arriving)
the un-started plan is brought up to date in fair-share order against
live GIS/NWS state, while claims (running jobs) are immutable.  The
head of the queue gets an advance reservation at the earliest window
the calendars allow; lower-priority jobs may *backfill* — start
immediately — only when their estimated run fits without delaying any
reservation ahead of them.  Claims therefore never overlap by
construction, and :meth:`MetaScheduler.audit_conflicts` re-proves it
from the recorded claim history.

Planning is a **delta re-plan** (DESIGN.md §9.6): the prefix of jobs
whose planning inputs (queue position, candidate host set, estimate)
are unchanged since the previous round *keep* their reservations, and
the plan is rebuilt from the first changed position.  It must match the
cancel-all/rebuild-all oracle in :mod:`repro.oracles.planner` byte for
byte.

Everything the service does lands in the ``metasched`` trace lane
(submit/queue/admit/reserve/backfill/start/complete/reject instants
and one span per executed job) and in the always-on ``meta_*``
counters of :class:`~repro.sim.stats.KernelStats`; the ``meta_plan_*``
family (rounds, kept vs rebuilt reservations, window probes, estimate
memo hits, scheduled wakes) exposes what the planner did.
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

#: per-position plan-signature kinds (delta re-plan bookkeeping)
_SIG_SKIP = "skip"    # candidate set smaller than n_hosts
_SIG_RESV = "resv"    # holds a planned advance reservation
_SIG_PROBE = "probe"  # behind a full reservation depth; not startable


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
    #: the current advance reservation (planning only; kept across
    #: rounds while its planning inputs are unchanged)
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
        # -- delta re-plan state (DESIGN.md §9.6) --
        #: last round's per-position decisions: (name, candidates, kind, est)
        self._plan_sig: List[Tuple[str, Tuple[str, ...], str, float]] = []
        #: book.version() snapshot when that plan was recorded
        self._plan_version: Optional[int] = None
        #: interned candidate tuples per ISA (identity-comparable)
        self._cand_intern: Dict[Optional[str], Tuple[str, ...]] = {}
        #: (job, candidate-prefix) -> estimated seconds
        self._est_memo: Dict[Tuple[str, Tuple[str, ...]], float] = {}

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
        """Delta re-plan from the dirty watermark."""
        stats = self.sim.stats
        book = self.book
        round_cands: Dict[Optional[str], Tuple[str, ...]] = {}

        def candidates(spec: JobSpec) -> Tuple[str, ...]:
            """Usable hosts, resolved once per ISA per round and
            interned across rounds so unchanged sets compare by
            identity in the plan signature."""
            got = round_cands.get(spec.isa)
            if got is None:
                fresh = tuple(self.admission.usable_hosts(spec))
                last = self._cand_intern.get(spec.isa)
                got = last if last == fresh else fresh
                self._cand_intern[spec.isa] = got
                round_cands[spec.isa] = got
            return got

        # A kept reservation must be provably identical to a rebuild:
        # any occupancy edit outside our own planning (claim/release/
        # foreign booking) or an overrunning claim (whose effective end
        # moves with `now`) voids the proof — rebuild everything.
        dirty = (self._plan_version is None
                 or book.version() != self._plan_version
                 or book.has_overrun(now))
        sig = self._plan_sig
        new_sig: List[Tuple[str, Tuple[str, ...], str, float]] = []
        blocked = False
        reservations_made = 0
        idx = 0
        if not dirty:
            # Replay the unchanged prefix of last round's decisions.
            while idx < len(ordered) and idx < len(sig):
                spec = ordered[idx]
                entry = sig[idx]
                if entry[0] != spec.name or entry[1] is not candidates(spec):
                    break  # dirty watermark: order or candidates changed
                state = self.jobs[spec.name]
                kind = entry[2]
                if kind == _SIG_SKIP:
                    blocked = True
                    new_sig.append(entry)
                    idx += 1
                    continue
                est = entry[3]
                if kind == _SIG_RESV:
                    start = state.planned[0].start
                    if start > now + _EPS:
                        blocked = True
                        reservations_made += 1
                        stats.meta_plan_kept += 1
                        new_sig.append(entry)
                        idx += 1
                        continue
                    # The reserved start has arrived: convert the
                    # reservation into a start on the very hosts it
                    # booked (what a rebuild would re-derive).
                    hosts = [resv.host for resv in state.planned]
                    book.release_block(state.planned, now)
                    state.planned = []
                    self._start_job(state, hosts, est, backfilled=blocked)
                    idx += 1
                    break  # depth accounting changed; rebuild the rest
                # _SIG_PROBE: behind a full depth — start now or stay.
                free = book.free_now(spec.n_hosts, est, entry[1], now,
                                     self.grace_seconds)
                if free is None:
                    blocked = True
                    new_sig.append(entry)
                    idx += 1
                    continue
                self._start_job(state, free, est, backfilled=blocked)
                idx += 1
                break  # a new claim landed; rebuild the rest

        # Cancel what was not kept, then re-plan from the watermark.
        for spec in ordered[idx:]:
            state = self.jobs[spec.name]
            if state.planned and state.status == "queued":
                book.release_block(state.planned, now)
                state.planned = []
        for spec in ordered[idx:]:
            state = self.jobs[spec.name]
            if state.status != "queued":
                continue
            cand = candidates(spec)
            if len(cand) < spec.n_hosts:
                blocked = True
                new_sig.append((spec.name, cand, _SIG_SKIP, 0.0))
                continue
            est = self._estimate(spec, cand)
            if reservations_made >= self.reserve_depth:
                # Depth exhausted: the only observable decision left is
                # "start immediately or stay blocked" — one probe.
                free = book.free_now(spec.n_hosts, est, cand, now,
                                     self.grace_seconds)
                if free is not None:
                    self._start_job(state, free, est, backfilled=blocked)
                else:
                    blocked = True
                    new_sig.append((spec.name, cand, _SIG_PROBE, est))
                continue
            window = book.find_window(spec.n_hosts, est, now, cand, now,
                                      self.grace_seconds)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
            else:
                blocked = True
                state.planned = book.reserve_block(
                    spec.name, hosts, start, start + est)
                reservations_made += 1
                stats.meta_plan_rebuilt += 1
                self._note_plan(state, start, hosts, est)
                new_sig.append((spec.name, cand, _SIG_RESV, est))
        self._plan_sig = new_sig
        self._plan_version = book.version()

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
        """Arm a wake at the earliest planned start, unless a pending
        wake at or before it will already trigger a round (which would
        re-arm for anything still planned then).  Fired wakes remove
        themselves from the pending list, so a stale past instant can
        never force a redundant re-arm."""
        earliest = float("inf")
        for spec in self.queue.specs():
            planned = self.jobs[spec.name].planned
            if planned and planned[0].start < earliest:
                earliest = planned[0].start
        if earliest == float("inf"):
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
        function of the job and the candidate prefix that sizes it."""
        key = (spec.name, candidates[:spec.n_hosts])
        est = self._est_memo.get(key)
        if est is None:
            est = self._estimate_seconds(spec, candidates)
            self._est_memo[key] = est
        else:
            self.sim.stats.meta_plan_estimate_memo_hits += 1
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
        return self.safety_factor * (critical / speed + parallel) + 10.0

    # -- execution ---------------------------------------------------------
    def _start_job(self, state: JobState, hosts: Sequence[str], est: float,
                   backfilled: bool) -> None:
        spec = state.spec
        now = self.sim.now
        self.queue.remove(spec.name)
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
