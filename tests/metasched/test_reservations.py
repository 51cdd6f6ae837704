"""Reservation calendar invariants (DESIGN.md §9.3, §9.6)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metasched.reservations import (
    HostCalendar,
    Reservation,
    ReservationBook,
    ReservationConflict,
    _dedup_times,
)
from repro.oracles.planner import (
    busy_during_reference,
    find_window_reference,
)


class TestReservation:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Reservation("j", "h", 10.0, 10.0)

    def test_overlap_is_half_open(self):
        resv = Reservation("j", "h", 10.0, 20.0)
        assert resv.overlaps(15.0, 25.0)
        assert not resv.overlaps(20.0, 30.0)  # touching is not overlap
        assert not resv.overlaps(0.0, 10.0)


class TestHostCalendar:
    def test_reserve_refuses_overlap(self):
        cal = HostCalendar("h")
        cal.reserve("a", 0.0, 100.0)
        with pytest.raises(ReservationConflict):
            cal.reserve("b", 50.0, 150.0)
        cal.reserve("b", 100.0, 150.0)  # abutting is fine

    def test_claim_backdates_start(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 50.0, 100.0)
        cal.claim(resv, 40.0)
        assert resv.start == 40.0
        assert resv.state == "claimed"

    def test_claim_requires_reserved_state(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 10.0)
        cal.claim(resv, 0.0)
        with pytest.raises(ValueError):
            cal.claim(resv, 1.0)

    def test_release_truncates_claims_into_history(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        cal.release(resv, 60.0)
        assert cal.claim_history == [("a", 0.0, 60.0)]
        assert cal.active() == []

    def test_release_of_unstarted_reservation_leaves_no_history(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 50.0, 100.0)
        cal.release(resv, 10.0)
        assert cal.claim_history == []

    def test_overdue_claim_blocks_until_grace_horizon(self):
        cal = HostCalendar("h")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        # The job overran its estimate: at t=200 the claim still blocks,
        # but only until now + grace.
        assert cal.busy_during(200.0, 210.0, now=200.0, grace=30.0)
        assert not cal.busy_during(231.0, 240.0, now=200.0, grace=30.0)
        assert cal.horizon_times(200.0, 30.0) == [230.0]

    def test_audit_catches_manufactured_overlap(self):
        cal = HostCalendar("h")
        cal.claim_history.append(("a", 0.0, 60.0))
        cal.claim_history.append(("b", 50.0, 90.0))
        problems = cal.audit()
        assert len(problems) == 1
        assert "overlap" in problems[0]

    def test_audit_clean_on_abutting_claims(self):
        cal = HostCalendar("h")
        cal.claim_history.append(("a", 0.0, 60.0))
        cal.claim_history.append(("b", 60.0, 90.0))
        assert cal.audit() == []


class TestReservationBook:
    def test_reserve_block_rolls_back_on_conflict(self):
        book = ReservationBook(["h1", "h2", "h3"])
        book.reserve_block("a", ["h2"], 0.0, 100.0)
        with pytest.raises(ReservationConflict):
            book.reserve_block("b", ["h1", "h2"], 50.0, 150.0)
        # the partial h1 booking was rolled back
        assert book.calendar("h1").active() == []

    def test_find_window_immediate_when_free(self):
        book = ReservationBook(["h1", "h2"])
        start, hosts = book.find_window(2, 60.0, 10.0, ["h1", "h2"], 10.0)
        assert start == 10.0
        assert hosts == ["h1", "h2"]

    def test_find_window_waits_for_earliest_gap(self):
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h2"], 0.0, 200.0)
        start, hosts = book.find_window(1, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert (start, hosts) == (100.0, ["h1"])
        start, hosts = book.find_window(2, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert (start, hosts) == (200.0, ["h1", "h2"])

    def test_find_window_fits_backfill_gap(self):
        book = ReservationBook(["h1"])
        book.reserve_block("head", ["h1"], 100.0, 200.0)
        # A 50 s job fits in [0, 100) without touching the reservation...
        start, hosts = book.find_window(1, 50.0, 0.0, ["h1"], 0.0)
        assert (start, hosts) == (0.0, ["h1"])
        # ...but a 150 s job must wait until the reservation ends.
        start, hosts = book.find_window(1, 150.0, 0.0, ["h1"], 0.0)
        assert start == 200.0

    def test_find_window_respects_preference_order(self):
        book = ReservationBook(["h1", "h2"])
        start, hosts = book.find_window(1, 10.0, 0.0, ["h2", "h1"], 0.0)
        assert hosts == ["h2"]

    def test_find_window_impossible_host_count(self):
        book = ReservationBook(["h1"])
        assert book.find_window(2, 10.0, 0.0, ["h1"], 0.0) is None

    def test_unavailable_hosts(self):
        book = ReservationBook(["h1", "h2", "h3"])
        resvs = book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h3"], 500.0, 600.0)
        assert book.unavailable_hosts(50.0) == ["h1", "h3"]
        assert book.unavailable_hosts(50.0, 60.0) == ["h1"]
        assert book.unavailable_hosts(100.0, 200.0) == []
        book.claim_block(resvs, 0.0)
        assert book.unavailable_hosts(50.0, 60.0) == ["h1"]
        assert book.unavailable_hosts(math.inf - 1) == []

    def test_audit_aggregates_hosts(self):
        book = ReservationBook(["h1", "h2"])
        book.calendar("h2").claim_history.extend(
            [("a", 0.0, 60.0), ("b", 30.0, 90.0)])
        problems = book.audit()
        assert len(problems) == 1
        assert problems[0].startswith("h2:")


class TestCandidateTimeDedup:
    """Eps-close floats are one candidate start, not several."""

    def test_dedup_collapses_within_eps(self):
        times = [100.0, 100.0 + 5e-10, 0.0, 100.0 - 3e-10, 200.0]
        assert _dedup_times(times) == [0.0, 100.0 - 3e-10, 200.0]

    def test_dedup_keeps_distinct_instants(self):
        assert _dedup_times([3.0, 1.0, 2.0]) == [1.0, 2.0, 3.0]

    def test_find_window_merges_eps_close_reservation_ends(self):
        # Two hosts whose reservations end a sub-eps apart: the sweep
        # must treat that as ONE candidate start on both engines.
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h2"], 0.0, 100.0 + 5e-10)
        got = book.find_window(2, 50.0, 0.0, ["h1", "h2"], 0.0)
        want = find_window_reference(book, 2, 50.0, 0.0, ["h1", "h2"], 0.0)
        assert got == want
        start, hosts = got
        assert hosts == ["h1", "h2"]
        assert abs(start - 100.0) < 1e-9


class TestUnavailableHostsDefaults:
    """``unavailable_hosts(start)`` with no ``end`` means "from start
    onwards, forever" — the rescheduler's conservative question."""

    def test_default_end_is_open_ended(self):
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("far", ["h2"], 1e9, 1e9 + 60.0)
        # with an explicit horizon the far-future booking is invisible...
        assert book.unavailable_hosts(0.0, 100.0) == []
        # ...with the default end=inf it is not
        assert book.unavailable_hosts(0.0) == ["h2"]

    def test_released_reservations_never_count(self):
        book = ReservationBook(["h1"])
        resvs = book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.release_block(resvs, 10.0)
        assert book.unavailable_hosts(0.0) == []


class TestOverrunningClaimBlocksRescheduler:
    """A claim held past its estimate still occupies its host."""

    def test_unavailable_hosts_sees_overrunning_claim(self):
        book = ReservationBook(["h1", "h2"])
        book.claim_block(book.reserve_block("a", ["h1"], 0.0, 100.0), 0.0)
        assert book.calendar("h1").busy_during(150.0, 160.0, 150.0, 30.0)
        assert book.unavailable_hosts(150.0) == ["h1"]
        assert book.unavailable_hosts(150.0, 160.0) == ["h1"]

    def test_released_claim_frees_its_host(self):
        book = ReservationBook(["h1", "h2"])
        resvs = book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.claim_block(resvs, 0.0)
        book.release_block(resvs, 150.0)
        assert book.unavailable_hosts(150.0) == []


class TestOverrunHorizons:
    """Overrunning claims and the grace horizon (DESIGN.md §9.3)."""

    def test_horizon_times_mixes_grace_and_real_ends(self):
        cal = HostCalendar("h")
        running = cal.reserve("running", 0.0, 100.0)
        cal.claim(running, 0.0)
        cal.reserve("future", 400.0, 500.0)
        # At t=200 the claim has overrun: its effective end is
        # now + grace, while the untouched booking keeps its real end.
        assert cal.horizon_times(200.0, 30.0) == [230.0, 500.0]
        # Before the estimate elapsed, both ends are the real ones.
        assert cal.horizon_times(50.0, 30.0) == [100.0, 500.0]

    def test_has_overrun_is_per_host(self):
        book = ReservationBook(["h1", "h2"])
        resv = book.calendar("h1").reserve("a", 0.0, 100.0)
        book.calendar("h1").claim(resv, 0.0)
        assert book.calendar("h1").has_overrun(150.0)
        assert not book.calendar("h2").has_overrun(150.0)
        assert not book.calendar("h1").has_overrun(50.0)

    def test_release_clears_overrun(self):
        book = ReservationBook(["h1"])
        cal = book.calendar("h1")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        assert cal.has_overrun(150.0)
        cal.release(resv, 150.0)
        assert not cal.has_overrun(150.0)
        assert book.unavailable_hosts(150.0) == []

    def test_overrun_claims_passed_end_is_no_window_start(self):
        # O's claim overran at 90 (effective end 130); B is free from
        # 90 + 5e-10.  Searching from before now, the passed estimate
        # 90 is not a candidate start: it would let B start an eps early.
        book = ReservationBook(["O", "B"])
        book.claim_block(book.reserve_block("o", ["O"], 0.0, 90.0), 0.0)
        book.reserve_block("b", ["B"], 80.0, 90.0 + 5e-10)
        got = book.find_window(1, 5.0, 85.0, ["O", "B"], 100.0, 30.0)
        want = find_window_reference(book, 1, 5.0, 85.0, ["O", "B"],
                                     100.0, 30.0)
        assert got == want == (90.0 + 5e-10, ["B"])

    def test_overrun_claim_after_the_window_does_not_block_it(self):
        # Searching from before now: h1's claim [50, 90) overran (now is
        # 100) but starts after the window [10, 15), which is free.
        book = ReservationBook(["h1", "h2"])
        book.claim_block(book.reserve_block("a", ["h1"], 50.0, 90.0), 50.0)
        book.claim_block(book.reserve_block("b", ["h2"], 0.0, 95.0), 0.0)
        got = book.find_window(1, 5.0, 10.0, ["h2", "h1"], 100.0, 30.0)
        want = find_window_reference(book, 1, 5.0, 10.0, ["h2", "h1"],
                                     100.0, 30.0)
        assert got == want == (10.0, ["h1"])

    def test_free_now_skips_overrunning_host(self):
        book = ReservationBook(["h1", "h2"])
        resv = book.calendar("h1").reserve("a", 0.0, 100.0)
        book.calendar("h1").claim(resv, 0.0)
        # h1's job is still running at t=150; only h2 is free now.
        assert book.free_now(1, 60.0, ["h1", "h2"], 150.0) == ["h2"]
        assert book.free_now(2, 60.0, ["h1", "h2"], 150.0) is None


class TestIncrementalInternals:
    """The §9.6 fast-path bookkeeping the planner relies on."""

    def test_profile_tracks_live_intervals(self):
        book = ReservationBook(["h1", "h2"])
        profile = book.profile
        h1, h2 = profile.bits["h1"], profile.bits["h2"]
        a = book.reserve_block("a", ["h1", "h2"], 0.0, 100.0)
        b = book.reserve_block("b", ["h1"], 100.0, 150.0)
        assert profile.times == [0.0, 100.0, 150.0]
        assert profile.busy == [h1 | h2, h1, 0]
        assert profile.refs == [2, 3, 1]
        book.release_block(a, 10.0)
        assert profile.times == [100.0, 150.0]
        assert profile.busy == [h1, 0]
        book.release_block(b, 10.0)
        assert (profile.times, profile.busy, profile.refs) == ([], [], [])
        assert profile.ends == [] and profile.reserved_starts == []

    def test_profile_keeps_eps_overlapping_neighbour(self):
        # Intervals on one host may overlap by less than _EPS; releasing
        # one must leave the shared segment busy for the other.
        book = ReservationBook(["h"])
        bit = book.profile.bits["h"]
        first = book.reserve_block("a", ["h"], 0.0, 100.0)
        book.reserve_block("b", ["h"], 100.0 - 5e-10, 200.0)
        book.release_block(first, 0.0)
        assert book.profile.times == [100.0 - 5e-10, 200.0]
        assert book.profile.busy == [bit, 0]

    def test_backdated_claim_moves_the_interval(self):
        book = ReservationBook(["h"])
        resvs = book.reserve_block("a", ["h"], 50.0, 100.0)
        assert book.next_reserved_start(0.0) == 50.0
        book.claim_block(resvs, 40.0)
        assert book.profile.times == [40.0, 100.0]
        assert book.profile.ends == [100.0]
        assert book.next_reserved_start(0.0) is None

    def test_free_bound_counts_hosts_the_profile_leaves_free(self):
        book = ReservationBook(["h1", "h2", "h3"])
        book.reserve_block("a", ["h1"], 0.0, 100.0)
        book.reserve_block("b", ["h2"], 20.0, 100.0)
        assert book.free_bound(10.0, 5.0) == 2
        assert book.free_bound(10.0, 20.0) == 1
        # an overrunning claim is busy until now + grace
        claim = book.reserve_block("c", ["h3"], 0.0, 5.0)
        book.claim_block(claim, 0.0)
        assert book.free_bound(10.0, 5.0, grace=30.0) == 1
        assert book.free_bound(50.0, 5.0, grace=1.0) == 0

    def test_book_version_bumps_on_every_mutation(self):
        book = ReservationBook(["h1", "h2"])
        v0 = book.version()
        resvs = book.reserve_block("a", ["h1", "h2"], 0.0, 100.0)
        v1 = book.version()
        assert v1 == v0 + 2  # one bump per calendar insert
        book.claim_block(resvs, 0.0)
        v2 = book.version()
        assert v2 > v1
        book.release_block(resvs, 50.0)
        assert book.version() > v2

    def test_lazily_created_calendar_shares_version_cell(self):
        book = ReservationBook()
        cal = book.calendar("new-host")
        v0 = book.version()
        cal.reserve("a", 0.0, 10.0)
        assert book.version() == v0 + 1

    def test_rolled_back_block_still_advances_version(self):
        # A rollback mutates calendars (insert then release), so the
        # planner must treat it as a world change — version moves.
        book = ReservationBook(["h1", "h2"])
        book.reserve_block("a", ["h2"], 0.0, 100.0)
        v = book.version()
        with pytest.raises(ReservationConflict):
            book.reserve_block("b", ["h1", "h2"], 50.0, 150.0)
        assert book.version() > v


class TestProfileEpsEdges:
    """Windows whose edges sit within ``_EPS`` of a breakpoint: the
    profile's masks may miss a busy host there, and the exact per-host
    test must still decide as the oracle does."""

    def _agree(self, book, n, duration, not_before, cands, now, grace):
        got = book.find_window(n, duration, not_before, cands, now, grace)
        assert got == find_window_reference(book, n, duration, not_before,
                                             cands, now, grace)
        return got

    def test_breakpoint_inside_the_eps_band_of_a_tiny_window(self):
        # h1's reservation puts a breakpoint at 10 - 3e-10, so no segment
        # of h0's [0, 20) passes the mask test for [10, 10 + 5e-10).
        book = ReservationBook(["h0", "h1"])
        book.reserve_block("a", ["h0"], 0.0, 20.0)
        book.reserve_block("b", ["h1"], 5.0, 10.0 - 3e-10)
        assert self._agree(book, 1, 5e-10, 10.0, ["h0"], 10.0, 30.0) == (
            20.0, ["h0"])

    def test_earlier_reservation_ending_later_still_blocks(self):
        # b sits within a's eps band and ends before it: a decides.
        book = ReservationBook(["h"])
        book.reserve_block("a", ["h"], 0.0, 100.0)
        book.reserve_block("b", ["h"], 100.0 - 5e-10, 100.0 - 2e-10)
        start = 100.0 - 1.1e-9
        assert book.calendar("h").busy_during(start, start + 5.0, 0.0, 30.0)
        self._agree(book, 1, 5.0, start, ["h"], 0.0, 30.0)

    def test_passed_estimate_under_a_sub_eps_grace(self):
        # The claim's estimate (100 + 8e-10) still reaches past the
        # window start, but with grace 1e-10 the claim only blocks until
        # 99.9999999991: the host is free from 100 - 5e-10.
        book = ReservationBook(["h"])
        book.claim_block(book.reserve_block("a", ["h"], 0.0, 100.0 + 8e-10),
                         0.0)
        start = 100.0 - 5e-10
        assert self._agree(book, 1, 1.0, start, ["h"], 100.0, 1e-10) == (
            start, ["h"])


# ---------------------------------------------------------------------------
# Property: the profile-driven planner queries equal the linear oracle
# ---------------------------------------------------------------------------

_HOSTS = ("h0", "h1", "h2", "h3", "h4")
#: instants on a coarse grid, nudged to eps-close and abutting values
_TIMES = st.builds(lambda base, nudge: base * 10.0 + nudge,
                   st.integers(0, 30),
                   st.sampled_from([0.0, 0.0, 0.0, 5e-10, -5e-10, 2e-9]))
_SPANS = st.sampled_from([5e-10, 2e-9, 1.0, 10.0, 10.0, 25.0, 40.0, 100.0])


def _rebuilt_profile(book):
    """(times, busy, refs) recomputed from the live calendars."""
    edges = {}
    live = []
    for name in book.hosts():
        for resv in book.calendar(name).active():
            live.append(resv)
            for at in (resv.start, resv.end):
                edges[at] = edges.get(at, 0) + 1
    times = sorted(edges)
    busy = []
    for j, at in enumerate(times):
        mask = 0
        if j + 1 < len(times):
            for resv in live:
                if resv.start <= at and times[j + 1] <= resv.end:
                    mask |= book.profile.bits[resv.host]
        busy.append(mask)
    return times, busy, [edges[at] for at in times]


def _check_queries(book, data):
    now = data.draw(_TIMES, label="now")
    not_before = now + data.draw(
        st.sampled_from([0.0, 0.0, 15.0, -15.0, -45.0]),
        label="not_before - now")
    grace = data.draw(st.sampled_from([30.0, 30.0, 0.5, 1e-10]),
                      label="grace")
    duration = data.draw(_SPANS, label="duration")
    order = list(data.draw(st.permutations(_HOSTS), label="order"))
    cands = tuple(order[:data.draw(st.integers(1, len(_HOSTS)),
                                   label="n candidates")])
    n = data.draw(st.integers(1, len(cands) + 1), label="n")
    # the same tuple twice (cached), then one that lost a host
    for query in (cands, cands, cands[1:], list(cands)):
        got = book.find_window(n, duration, not_before, query, now, grace)
        want = find_window_reference(book, n, duration, not_before, query,
                                     now, grace)
        assert got == want
        free = book.free_now(n, duration, query, now, grace)
        first = find_window_reference(book, n, duration, now, query, now,
                                      grace)
        assert free == (first[1] if first and first[0] == now else None)
    truly_free = [name for name in _HOSTS if not busy_during_reference(
        book.calendar(name), now, now + duration, now, grace)]
    assert len(truly_free) <= book.free_bound(now, duration, grace)
    assert book.unavailable_hosts(now, now + duration, grace) == [
        name for name in _HOSTS if name not in truly_free]


class TestProfileMatchesOracle:
    """Interleaved reserve / claim (backdated too) / release / rolled
    back blocks, with planner queries between edits: the incremental
    profile must answer exactly as the linear oracle and equal a
    profile rebuilt from scratch."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_incremental_profile_equals_oracle(self, data):
        book = ReservationBook(_HOSTS)
        live = []
        for step in range(data.draw(st.integers(1, 25), label="steps")):
            op = data.draw(st.sampled_from(
                ["reserve", "reserve", "claim", "release", "query"]),
                label=f"op {step}")
            if op == "reserve":
                hosts = data.draw(st.lists(st.sampled_from(_HOSTS),
                                           min_size=1, max_size=3,
                                           unique=True), label="hosts")
                start = data.draw(_TIMES, label="start")
                end = start + data.draw(_SPANS, label="span")
                try:
                    live.extend(book.reserve_block(f"j{step}", hosts,
                                                   start, end))
                except ReservationConflict:
                    pass  # rolled back
            elif op == "claim":
                waiting = [r for r in live if r.state == "reserved"]
                if waiting:
                    resv = data.draw(st.sampled_from(waiting), label="claim")
                    at = resv.start + data.draw(
                        st.sampled_from([0.0, -5.0, -5e-10, 3.0]),
                        label="claim offset")
                    book.calendar(resv.host).claim(resv, at)
            elif op == "release":
                if live:
                    resv = data.draw(st.sampled_from(live), label="release")
                    book.calendar(resv.host).release(
                        resv, data.draw(_TIMES, label="release at"))
                    live.remove(resv)
            else:
                _check_queries(book, data)
            times, busy, refs = _rebuilt_profile(book)
            assert book.profile.times == times
            assert book.profile.busy == busy
            assert book.profile.refs == refs
        _check_queries(book, data)
