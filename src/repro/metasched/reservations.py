"""Per-host advance-reservation calendars and the free-host profile.

Each host owns a :class:`HostCalendar` of non-overlapping intervals; a
:class:`ReservationBook` aggregates a testbed's calendars and answers
the metascheduler's questions: "when is the earliest window in which
``n`` hosts are free for ``duration`` seconds?" and "which hosts are
spoken for?" (which keeps the rescheduler off booked capacity).

Invariants (DESIGN.md §9.3): live intervals on one host never
overlap; a **claim** records actual occupancy from job start to
release, so ``audit()`` proves no two claims ever overlapped; and a
claim held past its estimated ``end`` is busy until ``now + grace``.

Planning (DESIGN.md §9.6) reads the book's :class:`FreeHostProfile`, a
step function of occupied hosts over time that ``reserve``, ``claim``
and ``release`` keep current.  The linear algorithms are the oracle in
:mod:`repro.oracles.planner`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:  # pragma: no cover — typing-only import
    from ..sim.stats import KernelStats

__all__ = ["Reservation", "ReservationConflict", "HostCalendar",
           "FreeHostProfile", "ReservationBook"]

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
    """Sort and collapse instants within ``_EPS`` of each other: floats
    that differ by accumulated event noise are one candidate start."""
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
        #: running maximum of the ``_active`` ends, rebuilt lazily
        self._max_ends: Optional[List[float]] = None
        #: shared with the owning book (see ReservationBook.calendar) so
        #: the book-wide version stamp is O(1) instead of a sum over hosts
        self.version_cell = [0]
        #: the owning book's profile, told of every live-interval edit
        self.profile: Optional[FreeHostProfile] = None
        #: released claims, as (job, start, release_time) — the audit log
        self.claim_history: List[Tuple[str, float, float]] = []

    # -- queries -----------------------------------------------------------
    def active(self) -> List[Reservation]:
        return list(self._active)

    def has_overrun(self, now: float) -> bool:
        """Is a claim still held at/after its estimated end?  Its
        effective end then moves with ``now`` (``now + grace``)."""
        return any(resv.state == CLAIMED and resv.end <= now + _EPS
                   for resv in self._active)

    def horizon_times(self, now: float, grace: float) -> List[float]:
        """Effective end per live reservation, in start order — the
        candidate window starts (an overrunning claim's is
        ``now + grace``)."""
        horizon = now + grace
        return [horizon if resv.state == CLAIMED and resv.end <= now + _EPS
                else resv.end for resv in self._active]

    def busy_during(self, start: float, end: float,
                    now: float, grace: float) -> bool:
        """Is any live reservation in the way of ``[start, end)``?  A
        claim that outlived its estimate blocks until ``now + grace``.
        Exact: of the reservations starting before ``end - _EPS`` (a
        prefix by start), one is in the way iff the latest-ending is."""
        if self.has_overrun(now):
            return any(resv.start < end - _EPS and start < r_end - _EPS
                       for resv, r_end in zip(
                           self._active, self.horizon_times(now, grace)))
        return self._blocks(start, end)

    def _blocks(self, start: float, end: float) -> bool:
        """:meth:`busy_during` for a host without an overrunning claim."""
        k = bisect_left(self._starts, end - _EPS)
        if not k:
            return False
        if self._max_ends is None:
            self._max_ends = list(accumulate(
                (resv.end for resv in self._active), max))
        return start < self._max_ends[k - 1] - _EPS

    # -- mutation ----------------------------------------------------------
    def _touch(self) -> None:
        self.version_cell[0] += 1
        self._max_ends = None

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

    def _insert(self, job: str, start: float, end: float) -> Reservation:
        """:meth:`reserve` without telling the profile."""
        resv = Reservation(job, self.host, start, end)
        # Non-overlap means only the bisect neighbours can conflict.
        i = bisect_right(self._starts, resv.start)
        for other in self._active[max(i - 1, 0):i + 1]:
            if other.overlaps(resv.start, resv.end):
                raise ReservationConflict(
                    f"{self.host}: [{resv.start:.1f}, {resv.end:.1f}) for "
                    f"{job} overlaps {other!r}")
        self._active.insert(i, resv)
        self._starts.insert(i, resv.start)
        self._touch()
        return resv

    def _remove(self, resv: Reservation, now: float) -> None:
        """:meth:`release` without telling the profile."""
        i = self._index_of(resv)
        del self._active[i], self._starts[i]
        if resv.state == CLAIMED:
            resv.end = max(now, resv.start + _EPS)
            self.claim_history.append((resv.job, resv.start, resv.end))
        resv.state = RELEASED
        self._touch()

    def reserve(self, job: str, start: float, end: float) -> Reservation:
        """Book ``[start, end)``; raises :class:`ReservationConflict`."""
        resv = self._insert(job, start, end)
        if self.profile is not None:
            self.profile.enter([resv])
        return resv

    def claim(self, resv: Reservation, now: float) -> None:
        """Mark a reservation as actually occupied from ``now`` on."""
        if resv.state != RESERVED:
            raise ValueError(f"cannot claim a {resv.state} reservation")
        # Backdating can change the sort position: re-insert.
        i = self._index_of(resv)
        del self._active[i], self._starts[i]
        if self.profile is not None:
            self.profile.leave([resv], resv.start, resv.end, True)
        resv.start = min(resv.start, now)
        resv.state = CLAIMED
        i = bisect_right(self._starts, resv.start)
        self._active.insert(i, resv)
        self._starts.insert(i, resv.start)
        if self.profile is not None:
            self.profile.enter([resv])
        self._touch()

    def release(self, resv: Reservation, now: float) -> None:
        """End a reservation.  Claims are truncated/extended to the
        actual release instant and logged for the overlap audit;
        un-started reservations are simply cancelled."""
        if resv.state == RELEASED:
            raise ValueError("reservation already released")
        start, end, state = resv.start, resv.end, resv.state
        self._remove(resv, now)
        if self.profile is not None:
            self.profile.leave([resv], start, end, state == RESERVED)

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


class FreeHostProfile:
    """Which hosts are occupied over time, as a step function.

    ``times`` holds each distinct start and end of a live reservation,
    ``refs[j]`` the number of interval edges at ``times[j]``, and
    ``busy[j]`` the bitmask of hosts holding a live reservation over
    ``[times[j], times[j + 1])`` (the last segment is empty); a
    breakpoint is deleted when its last edge leaves.  Two sorted
    indexes ride along: live reservations by end and unclaimed ones by
    start.  Edits take a block of reservations sharing one interval.
    """

    def __init__(self, calendars: Dict[str, HostCalendar]) -> None:
        self.calendars = calendars
        #: host name -> its bit in every mask
        self.bits: Dict[str, int] = {}
        self.times: List[float] = []
        self.busy: List[int] = []
        self.refs: List[int] = []
        self.ends: List[float] = []
        self.end_resvs: List[Reservation] = []
        self.reserved_starts: List[float] = []

    def _edge(self, at: float, count: int) -> int:
        """Index of breakpoint ``at``, inserted if new; adds edges."""
        i = bisect_left(self.times, at)
        if i < len(self.times) and self.times[i] == at:
            self.refs[i] += count
        else:
            self.times.insert(i, at)
            self.busy.insert(i, self.busy[i - 1] if i else 0)
            self.refs.insert(i, count)
        return i

    def _drop_edges(self, i: int, count: int) -> None:
        self.refs[i] -= count
        if not self.refs[i]:
            del self.times[i], self.busy[i], self.refs[i]

    def enter(self, block: List[Reservation]) -> None:
        """Add live reservations sharing one interval and state."""
        start, end, n = block[0].start, block[0].end, len(block)
        mask = 0
        for resv in block:
            mask |= self.bits[resv.host]
        busy = self.busy
        for j in range(self._edge(start, n), self._edge(end, n)):
            busy[j] |= mask
        i = bisect_right(self.ends, end)
        self.ends[i:i] = [end] * n
        self.end_resvs[i:i] = block
        if block[0].state == RESERVED:
            i = bisect_right(self.reserved_starts, start)
            self.reserved_starts[i:i] = [start] * n

    def leave(self, block: List[Reservation], start: float, end: float,
              reserved: bool) -> None:
        """Remove reservations entered over ``[start, end)`` (unclaimed
        if ``reserved``) once gone from their calendars; a host's other
        bookings (which may overlap by ``_EPS``) set their bits again."""
        times, busy, n = self.times, self.busy, len(block)
        i = bisect_left(times, start)
        k = bisect_left(times, end, i)
        keep = ~reduce(or_, (self.bits[resv.host] for resv in block))
        for j in range(i, k):
            busy[j] &= keep
        for resv in block:
            bit = self.bits[resv.host]
            for other in self.calendars[resv.host]._active:
                if other.start < end and start < other.end:
                    lo = bisect_left(times, max(other.start, start), i, k)
                    for j in range(lo, bisect_left(
                            times, min(other.end, end), lo, k)):
                        busy[j] |= bit
        self._drop_edges(k, n)
        self._drop_edges(i, n)
        for resv in block:
            i = bisect_left(self.ends, end)
            while self.end_resvs[i] is not resv:
                i += 1
            del self.ends[i], self.end_resvs[i]
        if reserved:
            i = bisect_left(self.reserved_starts, start)
            del self.reserved_starts[i:i + n]

    def occupied(self, start: float, end_m: float) -> int:
        """Hosts certainly busy over a window from ``start`` whose end
        less ``_EPS`` is ``end_m``: the OR of every segment with
        ``times[j] < end_m`` and ``times[j + 1] - _EPS > start``, which
        lies inside reservations that are in the way.  Breakpoints
        within ``_EPS`` of the window can hide a busy host."""
        times = self.times
        stop = min(bisect_left(times, end_m), len(times) - 1)
        first = max(bisect_right(times, start) - 1, 0)
        while first < stop and times[first + 1] - _EPS <= start:
            first += 1
        return reduce(or_, self.busy[first:stop], 0)


class ReservationBook:
    """The calendars of every host the metascheduler may book."""

    def __init__(self, hosts: Iterable[str] = ()) -> None:
        #: one shared edit counter: every calendar mutation bumps it
        self._vcell = [0]
        self._calendars: Dict[str, HostCalendar] = {}
        self.profile = FreeHostProfile(self._calendars)
        for name in hosts:
            self.calendar(name)
        #: optional :class:`~repro.sim.stats.KernelStats` sink for the
        #: ``meta_plan_window_probes`` counter (set by the service)
        self.stats: Optional[KernelStats] = None
        #: (last candidate sequence, its :meth:`_candidates` answer)
        self._cand_cache: Optional[Tuple[tuple, tuple]] = None
        #: (key, :meth:`_overruns` answer)
        self._overrun_cache: Optional[tuple] = None

    def calendar(self, host: str) -> HostCalendar:
        cal = self._calendars.get(host)
        if cal is None:
            cal = self._calendars[host] = HostCalendar(host)
            cal.version_cell = self._vcell
            cal.profile = self.profile
            self.profile.bits[host] = 1 << len(self.profile.bits)
        return cal

    def hosts(self) -> List[str]:
        return sorted(self._calendars)

    def version(self) -> int:
        """Monotone edit stamp over every calendar, O(1): any reserve,
        claim or release anywhere moves it (it keys the overrun cache)."""
        return self._vcell[0]

    def next_reserved_start(self, after: float) -> Optional[float]:
        """Earliest start of an unclaimed reservation later than
        ``after`` — after a planning round, the earliest booking that
        round made."""
        starts = self.profile.reserved_starts
        i = bisect_right(starts, after)
        return starts[i] if i < len(starts) else None

    # -- block operations --------------------------------------------------
    def reserve_block(self, job: str, hosts: Sequence[str], start: float,
                      end: float) -> List[Reservation]:
        """Reserve ``[start, end)`` on every host, atomically."""
        made: List[Reservation] = []
        try:
            for host in hosts:
                made.append(self.calendar(host)._insert(job, start, end))
        except ReservationConflict:
            for resv in made:
                self.calendar(resv.host)._remove(resv, start)
            raise
        if made:
            self.profile.enter(made)
        return made

    def claim_block(self, reservations: Sequence[Reservation],
                    now: float) -> None:
        for resv in reservations:
            self.calendar(resv.host).claim(resv, now)

    def release_block(self, reservations: Sequence[Reservation],
                      now: float) -> None:
        """Release every live reservation: in one profile pass when they
        share an interval and state, as a job's block does."""
        live = [resv for resv in reservations if resv.state != RELEASED]
        if not live:
            return
        key = (live[0].start, live[0].end, live[0].state)
        if any((resv.start, resv.end, resv.state) != key for resv in live):
            for resv in live:
                self.calendar(resv.host).release(resv, now)
            return
        for resv in live:
            self.calendar(resv.host)._remove(resv, now)
        self.profile.leave(live, key[0], key[1], key[2] == RESERVED)

    # -- planning ----------------------------------------------------------
    def _candidates(self, candidates: Sequence[str]) -> tuple:
        """``(host mask, [(host, bit, calendar)] in preference order)``;
        kept for the last candidate sequence, which a round passes many
        times."""
        cached = self._cand_cache
        if cached is not None and (cached[0] is candidates
                                   or cached[0] == tuple(candidates)):
            return cached[1]
        cals = [self.calendar(host) for host in candidates]
        entries = [(cal.host, self.profile.bits[cal.host], cal)
                   for cal in cals]
        info = (reduce(or_, (e[1] for e in entries), 0), entries)
        self._cand_cache = (tuple(candidates), info)
        return info

    def _overruns(self, now: float, grace: float) -> tuple:
        """The claims overrunning at ``now`` (estimate ended at or
        before it; each busy until ``now + grace``) as ``(mask, latest
        start, latest end - _EPS, [(start, end - _EPS, bit)], horizon -
        _EPS)``, cached per (book version, now, grace)."""
        key = (self._vcell[0], now, grace)
        if self._overrun_cache is not None and self._overrun_cache[0] == key:
            return self._overrun_cache[1]
        profile = self.profile
        k = bisect_right(profile.ends, now + _EPS)
        claims = [(resv.start, resv.end - _EPS, profile.bits[resv.host])
                  for resv in profile.end_resvs[:k] if resv.state == CLAIMED]
        state = (reduce(or_, (c[2] for c in claims), 0),
                 max((c[0] for c in claims), default=-math.inf),
                 max((c[1] for c in claims), default=-math.inf),
                 claims, (now + grace) - _EPS)
        self._overrun_cache = (key, state)
        return state

    def _occupied(self, start: float, end_m: float, overruns: tuple) -> int:
        """:meth:`FreeHostProfile.occupied` with overrunning claims busy
        until the horizon; a host whose bit may come from a claim's
        passed estimate is left to the exact test."""
        occupied = self.profile.occupied(start, end_m)
        mask, latest_start, latest_end_m, claims, horizon_m = overruns
        if mask:
            if start < latest_end_m:
                for _c_start, c_end_m, bit in claims:
                    if start < c_end_m:
                        occupied &= ~bit
            if start < horizon_m:
                if latest_start < end_m:
                    occupied |= mask
                else:
                    for c_start, _c_end_m, bit in claims:
                        if c_start < end_m:
                            occupied |= bit
        return occupied

    def _free_at(self, start: float, duration: float, n_hosts: int,
                 cands: tuple, overruns: tuple, now: float, grace: float
                 ) -> Optional[List[str]]:
        """The first ``n_hosts`` candidates free over ``[start, start +
        duration)``, or ``None``: the masks rule hosts out, and the
        survivors are confirmed in preference order by the exact test."""
        end = start + duration
        cmask, entries = cands
        free = cmask & ~self._occupied(start, end - _EPS, overruns)
        if free.bit_count() < n_hosts:
            return None
        picked: List[str] = []
        for host, bit, cal in entries:
            if not free & bit:
                continue
            if not (cal.busy_during(start, end, now, grace)
                    if bit & overruns[0] else cal._blocks(start, end)):
                picked.append(host)
                if len(picked) == n_hosts:
                    return picked
        return None

    def find_window(self, n_hosts: int, duration: float, not_before: float,
                    candidates: Sequence[str], now: float,
                    grace: float = 30.0
                    ) -> Optional[Tuple[float, List[str]]]:
        """Earliest ``(start, hosts)`` where ``n_hosts`` of the candidate
        list (tried in the given preference order) are simultaneously
        free for ``duration`` seconds, or ``None``.  Candidate starts
        are ``not_before`` and every later effective end of a
        reservation on a candidate host, eps-merged; the walk stops at
        the first that fits.  Equal to
        :func:`repro.oracles.planner.find_window_reference`."""
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        cands = self._candidates(candidates)
        cmask = cands[0]
        bits = self.profile.bits
        overruns = self._overruns(now, grace)
        # An overrunning claim on a candidate ends, in effect, at the
        # grace horizon instead of its passed estimate.
        horizon = now + grace
        pending_horizon = bool(overruns[0] & cmask)
        ends, end_resvs = self.profile.ends, self.profile.end_resvs
        i = bisect_right(ends, not_before + _EPS)
        now_eps = now + _EPS
        start = not_before
        while True:
            if self.stats is not None:
                self.stats.meta_plan_window_probes += 1
            hosts = self._free_at(start, duration, n_hosts, cands,
                                  overruns, now, grace)
            if hosts is not None:
                return start, hosts
            floor = start + _EPS
            while i < len(ends):
                resv = end_resvs[i]
                if (ends[i] > floor and bits[resv.host] & cmask
                        and not (resv.state == CLAIMED
                                 and resv.end <= now_eps)):
                    break
                i += 1
            start = ends[i] if i < len(ends) else math.inf
            if pending_horizon and floor < horizon <= start:
                start = horizon
                pending_horizon = False
            if start == math.inf:
                return None

    def free_now(self, n_hosts: int, duration: float,
                 candidates: Sequence[str], now: float,
                 grace: float = 30.0) -> Optional[List[str]]:
        """First ``n_hosts`` candidates free for ``[now, now +
        duration)``, or ``None``: the first probe of
        :meth:`find_window` from ``now``."""
        if n_hosts < 1 or n_hosts > len(candidates):
            return None
        if self.stats is not None:
            self.stats.meta_plan_window_probes += 1
        return self._free_at(now, duration, n_hosts,
                             self._candidates(candidates),
                             self._overruns(now, grace), now, grace)

    def free_bound(self, now: float, min_duration: float,
                   grace: float = 30.0) -> int:
        """An upper bound on how many hosts :meth:`free_now` can return
        at ``now`` for any candidates and any duration of at least
        ``min_duration``: a longer window spans more segments, so the
        profile's mask only grows."""
        occupied = self._occupied(now, (now + min_duration) - _EPS,
                                  self._overruns(now, grace))
        return len(self._calendars) - occupied.bit_count()

    def unavailable_hosts(self, start: float, end: float = math.inf,
                          grace: float = 30.0) -> List[str]:
        """Hosts with any live reservation in the way of ``[start,
        end)`` — the set a reservation-respecting rescheduler must
        avoid.  ``start`` is taken as "now": a claim still held past
        its estimate blocks its host until ``start + grace``, exactly
        as the planner sees it (:meth:`HostCalendar.busy_during`)."""
        return [name for name in sorted(self._calendars)
                if self._calendars[name].busy_during(start, end, start,
                                                     grace)]

    def audit(self) -> List[str]:
        """All claim-overlap violations across every host (must be [])."""
        problems: List[str] = []
        for name in sorted(self._calendars):
            problems.extend(self._calendars[name].audit())
        return problems
