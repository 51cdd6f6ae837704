"""Fast-planner vs reference-oracle equivalence (DESIGN.md §9.6).

The profile-driven planner must be *observationally identical* to
the cancel-all/rebuild-all reference in ``repro.oracles.planner``: same
job outcomes, same claim histories, byte-identical same-seed reports.
Only the ``meta_plan_*`` performance counters may differ — and those
are excluded from reports.
"""

import random

from repro.experiments.metasched_stream import run_metasched
from repro.gis.directory import GridInformationService
from repro.metasched import JobSpec, MetaScheduler, generate_stream
from repro.metasched.jobs import build_workflow
from repro.metasched.reservations import ReservationBook
from repro.metasched.service import JobState
from repro.microgrid.testbed import fig3_testbed
from repro.nws.service import NetworkWeatherService
from repro.oracles.planner import (
    ReferenceMetaScheduler,
    find_window_reference,
)
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry


def build_service(service_cls=MetaScheduler, **kwargs):
    sim = Simulator()
    grid = fig3_testbed(sim)
    gis = GridInformationService()
    gis.register_grid(grid)
    nws = NetworkWeatherService(sim, grid, deploy_network_sensors=False)
    return sim, service_cls(sim, grid, gis, nws, **kwargs)


def serve(service_cls, specs, **kwargs):
    sim, service = build_service(service_cls, **kwargs)
    done = service.run_stream(specs)
    sim.run(stop_event=done)
    return sim, service


def spec(name, user="u0", kind="qr", submit=0.0, n_hosts=2, size=4000.0):
    return JobSpec(name=name, user=user, kind=kind, submit_time=submit,
                   n_hosts=n_hosts, size=size)


#: a contended stream: enough arrival pressure that reservations,
#: backfills and deep queues all occur on the 12-host testbed
CONTENDED = dict(users=6, arrival_rate=1 / 40.0, duration=2400.0, seed=2,
                 max_jobs=40)


class TestByteIdenticalReports:
    def test_fig3_stream(self):
        fast = run_metasched(**CONTENDED)
        ref = run_metasched(service_cls=ReferenceMetaScheduler, **CONTENDED)
        assert fast.to_json() == ref.to_json()
        assert fast.conflicts == []

    def test_scale_grid_stream(self):
        kwargs = dict(users=6, arrival_rate=1 / 20.0, duration=1200.0,
                      seed=3, max_jobs=30, n_hosts=16)
        fast = run_metasched(**kwargs)
        ref = run_metasched(service_cls=ReferenceMetaScheduler, **kwargs)
        assert fast.to_json() == ref.to_json()
        assert fast.summary()["completed"] > 0

    def test_report_excludes_engine_counters(self):
        result = run_metasched(users=2,
                               arrival_rate=1 / 200.0, duration=600.0,
                               seed=0, max_jobs=4)
        # full snapshot keeps them; the deterministic report drops them
        assert any(k.startswith("meta_plan_") for k in result.counters)
        assert not any(k.startswith("meta_plan_")
                       for k in result.report()["counters"])
        assert "engine" not in result.report()["params"]


class TestOutcomeEquivalence:
    def test_job_outcomes_and_claim_histories_identical(self):
        specs = generate_stream(5, 1 / 50.0, 2000.0, RngRegistry(4),
                                max_jobs=30)
        _sim_f, fast = serve(MetaScheduler, specs)
        _sim_r, ref = serve(ReferenceMetaScheduler, specs)
        for a, b in zip(fast.states(), ref.states()):
            assert a.spec.name == b.spec.name
            assert a.status == b.status
            assert a.started_at == b.started_at
            assert a.finished_at == b.finished_at
            assert a.hosts == b.hosts
            assert a.backfilled == b.backfilled
        for host in fast.book.hosts():
            assert (fast.book.calendar(host).claim_history
                    == ref.book.calendar(host).claim_history)
        assert fast.audit_conflicts() == []
        assert ref.audit_conflicts() == []

    def test_event_counts_and_wakes_match(self):
        specs = generate_stream(4, 1 / 60.0, 1800.0, RngRegistry(8),
                                max_jobs=20)
        sim_f, _fast = serve(MetaScheduler, specs)
        sim_r, _ref = serve(ReferenceMetaScheduler, specs)
        # shared wake logic: same arms, same kernel agenda, same clock
        assert (sim_f.stats.meta_plan_wakes
                == sim_r.stats.meta_plan_wakes)
        assert (sim_f.stats.events_processed
                == sim_r.stats.events_processed)
        assert sim_f.now == sim_r.now


class TestFastEngineMechanics:
    def test_profile_counters(self):
        fast = run_metasched(**CONTENDED)
        counters = fast.counters
        assert counters["meta_plan_rounds"] > 0
        assert counters["meta_plan_rebuilt"] > 0
        assert counters["meta_plan_window_probes"] > 0
        assert counters["meta_plan_probes_skipped"] > 0
        assert counters["meta_plan_estimate_memo_hits"] > 0
        assert "meta_plan_kept" not in counters

    def test_reference_engine_never_memoizes(self):
        ref = run_metasched(service_cls=ReferenceMetaScheduler, **CONTENDED)
        assert ref.counters["meta_plan_estimate_memo_hits"] == 0
        assert ref.counters["meta_plan_probes_skipped"] == 0
        assert ref.counters["meta_plan_rebuilt"] > 0

    def test_estimate_memo_drains_with_the_queue(self):
        specs = generate_stream(4, 1 / 60.0, 1800.0, RngRegistry(8),
                                max_jobs=20)
        sim, service = serve(MetaScheduler, specs)
        states = service.states()
        assert all(s.status in ("completed", "failed", "rejected")
                   for s in states)
        assert sim.stats.meta_plan_estimate_memo_hits > 0
        assert service._est_memo == {}


class TestWakeScheduling:
    """Regression for the stale-``_next_wake`` re-arm bug: the planner
    now tracks armed-but-unfired wake instants, so a wake that has
    fired can never suppress — or force — a later arm decision."""

    def _service_with_queued(self, names):
        sim, service = build_service()
        for i, name in enumerate(names):
            s = spec(name, user=f"u{i}")
            service.jobs[name] = JobState(spec=s,
                                          workflow=build_workflow(s))
            service.queue.push(s)
        return sim, service

    def test_pending_wake_suppresses_duplicate_arm(self):
        sim, service = self._service_with_queued(["r1"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 1
        assert service._pending_wakes == [200.0]
        # same earliest again: the pending wake already covers it
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 1

    def test_earlier_plan_gets_its_own_wake(self):
        sim, service = self._service_with_queued(["r1", "r2"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        service.jobs["r2"].planned = service.book.reserve_block(
            "r2", ["utk.n1"], 100.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 2
        assert service._pending_wakes == [100.0, 200.0]

    def test_fired_wake_does_not_force_rearm(self):
        sim, service = self._service_with_queued(["r1", "r2"])
        service.jobs["r1"].planned = service.book.reserve_block(
            "r1", ["utk.n0"], 200.0, 300.0)
        service._schedule_wake(0.0)
        service.jobs["r2"].planned = service.book.reserve_block(
            "r2", ["utk.n1"], 100.0, 300.0)
        service._schedule_wake(0.0)
        assert sim.stats.meta_plan_wakes == 2
        # isolate the arm/forget mechanics from planning side effects
        service._round = lambda: None
        service._wake(100.0)  # the 100 s wake fires and forgets itself
        assert service._pending_wakes == [200.0]
        # r2's plan was handled; r1's wake at 200 is still pending.
        # The old planner kept the stale fired instant and re-armed
        # unconditionally here; now the pending wake covers earliest.
        service.jobs["r2"].planned = []
        service._schedule_wake(150.0)
        assert sim.stats.meta_plan_wakes == 2  # no third arm

    def test_wakes_fire_rounds_end_to_end(self):
        # Two serialized 12-host jobs: the second starts off a round
        # triggered by completion or wake — either way the stream
        # drains and at least one wake was armed for the reservation.
        sim, service = build_service()
        done = service.run_stream([
            spec("a", user="u0", n_hosts=12, submit=0.0),
            spec("b", user="u1", n_hosts=12, submit=1.0),
        ])
        sim.run(stop_event=done)
        assert [s.status for s in service.states()] == ["completed"] * 2
        assert sim.stats.meta_plan_wakes >= 1
        # no stale past instants linger; anything left is a future wake
        # whose firing the stop event simply preempted
        assert all(w > sim.now - 1e-9 for w in service._pending_wakes)


class TestWindowSearchEquivalence:
    """Property test: the profile window search must agree with the
    nested-loop oracle on randomized calendars."""

    def _random_book(self, rng, n_hosts=6, n_resv=25):
        hosts = [f"h{i}" for i in range(n_hosts)]
        book = ReservationBook(hosts)
        for k in range(n_resv):
            host = rng.choice(hosts)
            start = rng.randrange(0, 500) * 1.0
            end = start + rng.randrange(1, 120)
            try:
                resv = book.calendar(host).reserve(f"j{k}", start, end)
            except Exception:
                continue
            roll = rng.random()
            if roll < 0.4:
                book.calendar(host).claim(resv, start)
            elif roll < 0.5:
                book.calendar(host).release(resv, start + 1.0)
        return book, hosts

    def test_matches_reference_on_random_calendars(self):
        for seed in range(12):
            rng = random.Random(seed)
            book, hosts = self._random_book(rng)
            for trial in range(20):
                n = rng.randrange(1, len(hosts) + 1)
                duration = rng.randrange(5, 200) * 1.0
                now = rng.randrange(0, 600) * 1.0
                order = hosts[:]
                rng.shuffle(order)
                got = book.find_window(n, duration, now, order, now, 30.0)
                want = find_window_reference(book, n, duration, now, order,
                                             now, 30.0)
                assert got == want, (seed, trial, n, duration, now, order)

    def test_free_now_is_the_immediate_probe(self):
        for seed in range(8):
            rng = random.Random(1000 + seed)
            book, hosts = self._random_book(rng)
            for trial in range(20):
                n = rng.randrange(1, len(hosts) + 1)
                duration = rng.randrange(5, 200) * 1.0
                now = rng.randrange(0, 600) * 1.0
                order = hosts[:]
                rng.shuffle(order)
                free = book.free_now(n, duration, order, now, 30.0)
                window = find_window_reference(book, n, duration, now,
                                               order, now, 30.0)
                if free is not None:
                    assert window == (now, free)
                elif window is not None:
                    assert window[0] > now
