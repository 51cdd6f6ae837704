"""Reference oracle for the metascheduler planner (§9.6, DESIGN.md §4.2).

The pre-overhaul planner cancels every un-started reservation each
round and rebuilds the plan with the linear-scan window search; the
profile-driven planner must match it byte for byte.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..metasched.jobs import JobSpec
from ..metasched.reservations import (_EPS, CLAIMED, HostCalendar,
                                      ReservationBook, _dedup_times)
from ..metasched.service import MetaScheduler

__all__ = ["ReferenceMetaScheduler", "busy_during_reference",
           "find_window_reference"]


def busy_during_reference(calendar: HostCalendar, start: float, end: float,
                          now: float, grace: float) -> bool:
    """The pre-overhaul linear scan — oracle for ``busy_during``."""
    for resv in calendar.active():
        r_end = resv.end
        if resv.state == CLAIMED and r_end <= now + _EPS:
            r_end = now + grace
        if resv.start < end - _EPS and start < r_end - _EPS:
            return True
    return False


def find_window_reference(book: ReservationBook, n_hosts: int,
                          duration: float, not_before: float,
                          candidates: Sequence[str], now: float,
                          grace: float = 30.0
                          ) -> Optional[Tuple[float, List[str]]]:
    """Oracle for ``find_window``: every candidate start (eps-close
    instants merged) is re-checked on every host with the linear scan."""
    if n_hosts < 1 or n_hosts > len(candidates):
        return None
    times = [not_before]
    for host in candidates:
        for t in book.calendar(host).horizon_times(now, grace):
            if t > not_before + _EPS:
                times.append(t)
    for start in _dedup_times(times):
        free = [host for host in candidates
                if not busy_during_reference(
                    book.calendar(host), start, start + duration, now,
                    grace)]
        if len(free) >= n_hosts:
            return start, free[:n_hosts]
    return None


class ReferenceMetaScheduler(MetaScheduler):
    """A :class:`MetaScheduler` whose every round is cancel-all /
    rebuild-all."""

    def _plan(self, now: float, ordered: Sequence[JobSpec]) -> None:
        for spec in ordered:
            state = self.jobs[spec.name]
            if state.planned:
                self.book.release_block(state.planned, now)
                state.planned = []
        blocked = False
        reservations_made = 0
        for spec in ordered:
            state = self.jobs[spec.name]
            candidates = self.admission.usable_hosts(spec)
            if len(candidates) < spec.n_hosts:
                blocked = True
                continue
            est = self._estimate_seconds(spec, candidates)
            window = find_window_reference(
                self.book, spec.n_hosts, est, now, candidates, now,
                self.grace_seconds)
            if window is None:
                blocked = True
                continue
            start, hosts = window
            if start <= now + _EPS:
                self._start_job(state, hosts, est, backfilled=blocked)
            else:
                blocked = True
                if reservations_made < self.reserve_depth:
                    state.planned = self.book.reserve_block(
                        spec.name, hosts, start, start + est)
                    reservations_made += 1
                    self.sim.stats.meta_plan_rebuilt += 1
                    self._note_plan(state, start, hosts, est)
