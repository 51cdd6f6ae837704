"""Per-host advance-reservation calendars.

Each host owns a :class:`HostCalendar` of non-overlapping time
intervals; a :class:`ReservationBook` aggregates the calendars of a
whole testbed and answers the planning questions the metascheduler
asks: "when is the earliest window in which ``n`` hosts are free for
``duration`` seconds?" and "which hosts are spoken for during this
interval?" (the latter is what keeps the rescheduler from migrating an
application onto capacity another job has booked).

Invariants (DESIGN.md §9):

* intervals of unreleased reservations on one host never overlap —
  :meth:`HostCalendar.reserve` refuses conflicting inserts, and
  :meth:`ReservationBook.reserve_block` rolls back partial blocks;
* a **claim** records actual occupancy: it starts when the job starts
  and is truncated to the release instant when the job ends, so the
  claim history is exactly the execution timeline.  ``audit()`` proves
  no two claims ever overlapped on any host;
* a claimed reservation whose estimated ``end`` has passed while the
  job is still running occupies its hosts until released — planners
  see an *effective* end pushed ``grace`` seconds past "now", which
  bounds how often an overrun forces a re-plan.

The planning hot path (DESIGN.md §9.6) is incremental: a calendar
keeps its reservations bisect-sorted by start, so a conflict check or
an insert costs O(log R) neighbour comparisons instead of a linear
scan plus a full re-sort, and the *effective ends* (overrunning claims
pushed ``grace`` past now) are computed once per (now, grace, state)
and shared by :meth:`HostCalendar.busy_during` /
:meth:`HostCalendar.horizon_times`.  :meth:`ReservationBook.find_window`
sweeps one merged, tolerance-deduplicated list of per-host event
points instead of re-scanning every calendar at every candidate start.
The pre-overhaul linear algorithms are the oracle in
:mod:`repro.oracles.planner`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from ..sim.stats import KernelStats

__all__ = ["Reservation", "ReservationConflict", "HostCalendar",
           "ReservationBook"]

#: slack when comparing simulated times (floats accumulated over events)
_EPS = 1e-9

#: reservation lifecycle states
RESERVED = "reserved"
CLAIMED = "claimed"
RELEASED = "released"


class ReservationConflict(RuntimeError):
    """Raised when an insert would overlap an existing reservation."""


class Reservation:
    """One job's booking of one host over ``[start, end)``."""

    __slots__ = ("job", "host", "start", "end", "state")

    def __init__(self, job: str, host: str, start: float, end: float) -> None:
        if end <= start:
            raise ValueError(f"empty reservation [{start}, {end})")
        self.job = job
        self.host = host
        self.start = float(start)
        self.end = float(end)
        self.state = RESERVED

    def overlaps(self, start: float, end: float) -> bool:
        return self.start < end - _EPS and start < self.end - _EPS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Reservation {self.job}@{self.host} "
                f"[{self.start:.1f}, {self.end:.1f}) {self.state}>")


def _dedup_times(times: List[float]) -> List[float]:
    """Sort and collapse instants within ``_EPS`` of each other.

    Floats that differ by accumulated event noise are one candidate
    start, not several; keeping them distinct made ``find_window``
    re-scan every host for starts that cannot differ observably.
    """
    times.sort()
    out = [times[0]]
    for t in times[1:]:
        if t > out[-1] + _EPS:
            out.append(t)
    return out


class HostCalendar:
    """Non-overlapping reservations for a single host, sorted by start."""

    def __init__(self, host: str) -> None:
        self.host = host
        #: live (reserved or claimed) reservations, sorted by start
        self._active: List[Reservation] = []
        #: parallel array of starts — the bisect index over ``_active``
        self._starts: List[float] = []
        #: actual ends of claimed reservations (overrun detection)
        self._claim_ends: List[float] = []
        #: monotone edit counter; any mutation bumps it (cache keys)
        self.mutations = 0
        #: shared with the owning book (see ReservationBook.calendar) so
        #: the book-wide version stamp is O(1) instead of a sum over hosts
        self.version_cell = [0]
        #: released claims, as (job, start, release_time) — the audit log
        self.claim_history: List[Tuple[str, float, float]] = []
        #: memo for :meth:`_effective_ends`
        self._eff_cache: Tuple[int, float, float, List[float]] = (
            -1, 0.0, 0.0, [])
        #: memo for :meth:`first_live` — (mutations, now, index)
        self._live_cache: Tuple[int, float, int] = (-1, 0.0, 0)

    # -- queries -----------------------------------------------------------
    def active(self) -> List[Reservation]:
        return list(self._active)

    def has_overrun(self, now: float) -> bool:
        """Does any claimed reservation's estimate end at/before now?

        While an overrun exists, effective ends move with ``now`` and
        window decisions stop being time-invariant — the fast planner
        falls back to a full re-plan (DESIGN.md §9.6).
        """
        if not self._claim_ends:
            return False
        return self._claim_ends[0] <= now + _EPS

    def _effective_ends(self, now: float, grace: float) -> List[float]:
        """Effective end per live reservation, in start order.

        An overrunning claim (still running past its estimate) blocks
        until ``now + grace``.  Cached per (state, now, grace): one
        planning round asks for the same horizon many times.
        """
        key = (self.mutations, now, grace)
        cached = self._eff_cache
        if cached[:3] == key:
            return cached[3]
        horizon = now + grace
        out = []
        for resv in self._active:
            r_end = resv.end
            if resv.state == CLAIMED and r_end <= now + _EPS:
                r_end = horizon
            out.append(r_end)
        self._eff_cache = (self.mutations, now, grace, out)
        return out

    def busy_during(self, start: float, end: float,
                    now: float, grace: float) -> bool:
        """Is any live reservation in the way of ``[start, end)``?

        A claimed reservation that has outlived its estimate (the job is
        still running past ``end``) blocks until ``now + grace``: the
        planner re-checks at that horizon instead of busy-waiting.

        O(log R) bisect on the start-sorted array when no claim is
        overrunning; with an overrun in play, effective ends are no
        longer monotone and every live reservation is scanned instead.
        """
        if self.has_overrun(now):
            ends = self._effective_ends(now, grace)
            for resv, r_end in zip(self._active, ends):
                if resv.start < end - _EPS and start < r_end - _EPS:
                    return True
            return False
        # Non-overlapping intervals sorted by start have (eps-)monotone
        # ends, so the only candidate is the last start before `end`.
        pos = bisect_left(self._starts, end - _EPS)
        return pos > 0 and start < self._active[pos - 1].end - _EPS

    def first_live(self, now: float) -> int:
        """Index of the first reservation whose end is past ``now`` —
        the only ones that can block an interval starting there.

        With no overrunning claim (callers check :meth:`has_overrun`),
        non-overlapping start-sorted intervals have (eps-)monotone
        ends, so ``[now, end)`` is busy iff
        ``_starts[first_live(now)] < end - _EPS`` — which turns the
        per-(host, job) probes of one planning round (all sharing
        ``start = now``) into two comparisons after one cached bisect.
        """
        key = (self.mutations, now)
        cached = self._live_cache
        if cached[:2] == key:
            return cached[2]
        lo, hi = 0, len(self._active)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._active[mid].end > now + _EPS:
                hi = mid
            else:
                lo = mid + 1
        self._live_cache = (self.mutations, now, lo)
        return lo

    def horizon_times(self, now: float, grace: float) -> List[float]:
        """Candidate window-start instants: each live reservation's
        effective end (overrunning claims push ``grace`` past now)."""
        return list(self._effective_ends(now, grace))

    # -- mutation ----------------------------------------------------------
    def _index_of(self, resv: Reservation) -> int:
        """Position of ``resv`` in the sorted arrays (identity match)."""
        i = bisect_left(self._starts, resv.start)
        while i < len(self._active):
            if self._active[i] is resv:
                return i
            if self._starts[i] > resv.start:
                break
            i += 1
        raise ValueError("reservation does not belong to this calendar")

    def reserve(self, job: str, start: float, end: float) -> Reservation:
        """Book ``[start, end)``; raises :class:`ReservationConflict`.

        Non-overlap means only the bisect neighbours can conflict, so
        the check is O(log R) instead of a scan of every reservation.
        """
        start = float(start)
        end = float(end)
        if end <= start:
            raise ValueError(f"empty reservation [{start}, {end})")
        i = bisect_right(self._starts, start)
        if i > 0 and self._active[i - 1].overlaps(start, end):
            raise ReservationConflict(
                f"{self.host}: [{start:.1f}, {end:.1f}) for {job} "
                f"overlaps {self._active[i - 1]!r}")
        if i < len(self._active) and self._active[i].overlaps(start, end):
            raise ReservationConflict(
                f"{self.host}: [{start:.1f}, {end:.1f}) for {job} "
                f"overlaps {self._active[i]!r}")
        resv = Reservation(job, self.host, start, end)
        self._active.insert(i, resv)
        self._starts.insert(i, start)
        self.mutations += 1
        self.version_cell[0] += 1
        return resv

    def claim(self, resv: Reservation, now: float) -> None:
        """Mark a reservation as actually occupied from ``now`` on."""
        if resv.state != RESERVED:
            raise ValueError(f"cannot claim a {resv.state} reservation")
        i = self._index_of(resv)
        if now < resv.start:
            # Backdating can change the sort position: re-insert.
            del self._active[i]
            del self._starts[i]
            resv.start = now
            i = bisect_right(self._starts, resv.start)
            self._active.insert(i, resv)
            self._starts.insert(i, resv.start)
        resv.state = CLAIMED
        insort(self._claim_ends, resv.end)
        self.mutations += 1
        self.version_cell[0] += 1

    def release(self, resv: Reservation, now: float) -> None:
        """End a reservation.  Claims are truncated/extended to the
        actual release instant and logged for the overlap audit;
        un-started reservations are simply cancelled."""
        if resv.state == RELEASED:
            raise ValueError("reservation already released")
        i = self._index_of(resv)
        del self._active[i]
        del self._starts[i]
        if resv.state == CLAIMED:
            j = bisect_left(self._claim_ends, resv.end)
            del self._claim_ends[j]
            resv.end = max(now, resv.start + _EPS)
            self.claim_history.append((resv.job, resv.start, resv.end))
        resv.state = RELEASED
        self.mutations += 1
        self.version_cell[0] += 1

    def audit(self) -> List[str]:
        """Overlap violations among all claims, past and present."""
        intervals = list(self.claim_history)
        intervals.extend((r.job, r.start, math.inf)
                         for r in self._active if r.state == CLAIMED)
        intervals.sort(key=lambda item: (item[1], item[2], item[0]))
        problems = []
        for (job_a, start_a, end_a), (job_b, start_b, end_b) in zip(
                intervals, intervals[1:]):
            if start_b < end_a - _EPS:
                problems.append(
                    f"{self.host}: claims overlap — {job_a} "
                    f"[{start_a:.3f}, {end_a:.3f}) and {job_b} "
                    f"[{start_b:.3f}, {end_b:.3f})")
        return problems


class ReservationBook:
    """The calendars of every host the metascheduler may book."""

    def __init__(self, hosts: Iterable[str] = ()) -> None:
        #: one shared edit counter: every calendar mutation bumps it
        self._vcell = [0]
        self._calendars: Dict[str, HostCalendar] = {}
        for name in hosts:
            self.calendar(name)
        #: optional :class:`~repro.sim.stats.KernelStats` sink for the
        #: ``meta_plan_window_probes`` counter (set by the service)
        self.stats: Optional[KernelStats] = None
        #: memo for :meth:`has_overrun` — ((version, now), bool)
        self._overrun_cache: Optional[Tuple[Tuple[int, float], bool]] = None
        #: memo for :meth:`_now_gaps` — (version, now, cands, gaps, ranked)
        self._gap_cache: Optional[Tuple[int, float, Tuple[str, ...],
                                        List[float], List[float]]] = None

    def calendar(self, host: str) -> HostCalendar:
        cal = self._calendars.get(host)
        if cal is None:
            cal = self._calendars[host] = HostCalendar(host)
            cal.version_cell = self._vcell
        return cal

    def hosts(self) -> List[str]:
        return sorted(self._calendars)

    def version(self) -> int:
        """Monotone edit stamp over every calendar, O(1).

        The fast planner snapshots this at the end of a round; a
        mismatch at the next round means occupancy changed outside its
        own planning (a claim, a release, a foreign booking) and kept
        reservations can no longer be proven identical to a rebuild.
        """
        return self._vcell[0]

    def has_overrun(self, now: float) -> bool:
        """Any overrunning claim anywhere (see HostCalendar.has_overrun).
        Cached per (version, now) — planning probes ask per job."""
        key = (self._vcell[0], now)
        cached = self._overrun_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        val = any(cal.has_overrun(now)
                  for cal in self._calendars.values())
        self._overrun_cache = (key, val)
        return val

    # -- block operations --------------------------------------------------
    def reserve_block(self, job: str, hosts: Sequence[str], start: float,
                      end: float) -> List[Reservation]:
        """Reserve ``[start, end)`` on every host, atomically."""
        made: List[Reservation] = []
        try:
            for host in hosts:
                made.append(self.calendar(host).reserve(job, start, end))
        except ReservationConflict:
            for resv in made:
                self.calendar(resv.host).release(resv, start)
            raise
        return made

    def claim_block(self, reservations: Sequence[Reservation],
                    now: float) -> None:
        for resv in reservations:
            self.calendar(resv.host).claim(resv, now)

    def release_block(self, reservations: Sequence[Reservation],
                      now: float) -> None:
        for resv in reservations:
            if resv.state != RELEASED:
                self.calendar(resv.host).release(resv, now)

    # -- planning ----------------------------------------------------------
    def _candidate_times(self, not_before: float, candidates: Sequence[str],
                         now: float, grace: float) -> List[float]:
        """Merged, eps-deduplicated window-start candidates: ``not_before``
        plus every later effective reservation end on any candidate."""
        times = [not_before]
        for host in candidates:
            for t in self.calendar(host)._effective_ends(now, grace):
                if t > not_before + _EPS:
                    times.append(t)
        return _dedup_times(times)

    def find_window(self, n_hosts: int, duration: float, not_before: float,
                    candidates: Sequence[str], now: float,
                    grace: float = 30.0
                    ) -> Optional[Tuple[float, List[str]]]:
        """Earliest ``(start, hosts)`` where ``n_hosts`` of the candidate
        list (tried in the given preference order) are simultaneously
        free for ``duration`` seconds.  ``None`` when no finite window
        exists (never happens while calendars hold finite intervals).

        One merged sweep: the candidate starts of every host calendar
        are collected once (deduplicated within ``_EPS``), and each
        (start, host) feasibility probe is an O(log R) bisect.  The
        result is identical to the linear oracle
        :func:`repro.oracles.planner.find_window_reference` — the
        equivalence suite asserts it.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        times = self._candidate_times(not_before, candidates, now, grace)
        # Monotone pointer sweep: candidate starts ascend, and a host
        # with no overrunning claim has both its start and end arrays
        # sorted — so one per-host cursor to its first still-live
        # reservation advances monotonically across the whole sweep,
        # making each (start, host) feasibility probe O(1) amortized.
        # Overrun is a per-host condition (only that host's effective
        # ends are rewritten to now + grace and stop being monotone),
        # so only the few overrunning hosts fall back to the linear
        # scan in busy_during per probe.
        cals = [self._calendars[host] for host in candidates]
        overrun = [cal.has_overrun(now) for cal in cals]
        starts_arrs = [cal._starts for cal in cals]
        ends_arrs = [cal._effective_ends(now, grace) for cal in cals]
        ptrs = [0] * len(cals)
        probes = 0
        try:
            for start in times:
                free: List[str] = []
                end = start + duration
                for i, host in enumerate(candidates):
                    probes += 1
                    if overrun[i]:
                        if cals[i].busy_during(start, end, now, grace):
                            continue
                    else:
                        ends = ends_arrs[i]
                        p = ptrs[i]
                        while p < len(ends) and ends[p] <= start + _EPS:
                            p += 1
                        ptrs[i] = p
                        starts = starts_arrs[i]
                        if p < len(starts) and starts[p] < end - _EPS:
                            continue
                    free.append(host)
                    if len(free) == n_hosts:
                        return start, free
            return None
        finally:
            if self.stats is not None:
                self.stats.meta_plan_window_probes += probes

    def free_now(self, n_hosts: int, duration: float,
                 candidates: Sequence[str], now: float,
                 grace: float = 30.0) -> Optional[List[str]]:
        """First ``n_hosts`` candidates (preference order) free for
        ``[now, now + duration)``, or ``None`` if fewer are free.

        Exactly the first iteration of the :meth:`find_window` sweep
        (the ``start = not_before = now`` probe): when a job's only
        observable decision is "start immediately or stay blocked" —
        a backfill candidate behind a full reservation depth — this
        answers it without sweeping any later windows.
        """
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        # All of one round's probes share start = now, so each host's
        # availability collapses to one number: the gap until its first
        # live reservation begins (zero on a host whose claim is
        # overrunning — it is occupied *at* now for any duration).
        # Computed once per (version, now, candidate set); the
        # descending-ranked copy answers the common backlogged case —
        # "no n-host window exists right now" — in one comparison.
        gaps, ranked = self._now_gaps(candidates, now)
        stats = self.stats
        threshold = duration - _EPS
        if ranked[n_hosts - 1] < threshold:
            if stats is not None:
                stats.meta_plan_window_probes += 1
            return None
        probes = 0
        free: List[str] = []
        for host, gap in zip(candidates, gaps):
            probes += 1
            if gap >= threshold:
                free.append(host)
                if len(free) == n_hosts:
                    break
        if stats is not None:
            stats.meta_plan_window_probes += probes
        return free

    def _now_gaps(self, candidates: Sequence[str], now: float
                  ) -> Tuple[List[float], List[float]]:
        """Per-candidate free gap at ``now`` (preference order) plus a
        descending-sorted copy.

        A host whose own claim is overrunning has gap zero: the claim
        occupies it from before ``now`` until ``now + grace``, so no
        positive-duration window starts there.  Hosts without an
        overrunning claim have monotone actual ends, so
        :meth:`HostCalendar.first_live` applies.
        """
        cands = (candidates if isinstance(candidates, tuple)
                 else tuple(candidates))
        version = self._vcell[0]
        cached = self._gap_cache
        if (cached is not None and cached[0] == version
                and cached[1] == now  # simlint: ignore[SL005] — exact cache-key match, not a tolerance decision
                and (cached[2] is cands or cached[2] == cands)):
            return cached[3], cached[4]
        gaps: List[float] = []
        for host in cands:
            cal = self.calendar(host)
            if cal.has_overrun(now):
                gaps.append(0.0)
                continue
            k = cal.first_live(now)
            if k == len(cal._starts):
                gaps.append(math.inf)
            else:
                gaps.append(cal._starts[k] - now)
        ranked = sorted(gaps, reverse=True)
        self._gap_cache = (version, now, cands, gaps, ranked)
        return gaps, ranked

    def unavailable_hosts(self, start: float,
                          end: float = math.inf) -> List[str]:
        """Hosts with any live reservation overlapping ``[start, end)``
        — the set a reservation-respecting rescheduler must avoid."""
        out = []
        for name in sorted(self._calendars):
            for resv in self._calendars[name].active():
                if resv.overlaps(start, end):
                    out.append(name)
                    break
        return out

    def audit(self) -> List[str]:
        """All claim-overlap violations across every host (must be [])."""
        problems: List[str] = []
        for name in sorted(self._calendars):
            problems.extend(self._calendars[name].audit())
        return problems
