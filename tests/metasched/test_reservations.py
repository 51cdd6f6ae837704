"""Reservation calendar invariants (DESIGN.md §9.3, §9.6)."""

import math

import pytest

from repro.metasched.reservations import (
    HostCalendar,
    Reservation,
    ReservationBook,
    ReservationConflict,
    _dedup_times,
)
from repro.oracles.planner import find_window_reference


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
        assert book.has_overrun(150.0)
        assert not book.has_overrun(50.0)

    def test_release_clears_overrun(self):
        book = ReservationBook(["h1"])
        cal = book.calendar("h1")
        resv = cal.reserve("a", 0.0, 100.0)
        cal.claim(resv, 0.0)
        assert book.has_overrun(150.0)
        cal.release(resv, 150.0)
        assert not book.has_overrun(150.0)

    def test_free_now_skips_overrunning_host(self):
        book = ReservationBook(["h1", "h2"])
        resv = book.calendar("h1").reserve("a", 0.0, 100.0)
        book.calendar("h1").claim(resv, 0.0)
        # h1's job is still running at t=150; only h2 is free now.
        assert book.free_now(1, 60.0, ["h1", "h2"], 150.0) == ["h2"]
        assert book.free_now(2, 60.0, ["h1", "h2"], 150.0) is None


class TestIncrementalInternals:
    """The §9.6 fast-path bookkeeping the planner relies on."""

    def test_first_live_indexes_past_finished_intervals(self):
        cal = HostCalendar("h")
        cal.reserve("a", 0.0, 10.0)
        cal.reserve("b", 20.0, 30.0)
        cal.reserve("c", 40.0, 50.0)
        assert cal.first_live(5.0) == 0
        assert cal.first_live(15.0) == 1
        assert cal.first_live(35.0) == 2
        assert cal.first_live(60.0) == 3

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
