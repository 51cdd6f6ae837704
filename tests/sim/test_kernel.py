"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    EventAlreadyTriggered,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = Simulator(start_time=42.0)
    assert sim.now == 42.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_caps_clock():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_beyond_agenda_advances_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run(until=50.0)
    assert sim.now == 50.0


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    for delay in (7.0, 1.0, 4.0):
        sim.call_after(delay, lambda d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 4.0, 7.0]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_after(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def proc():
        value = yield ev
        got.append(value)

    sim.process(proc())
    sim.call_after(2.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(EventAlreadyTriggered):
        ev.succeed(2)
    with pytest.raises(EventAlreadyTriggered):
        ev.fail(RuntimeError("nope"))


def test_event_value_unavailable_before_trigger():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_sleeps_and_resumes():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(3.0)
        trace.append(sim.now)
        yield sim.timeout(4.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 3.0, 7.0]


def test_process_return_value_is_event_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    results = []

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == ["done"]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    caught = []

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(parent())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_raises_from_run():
    sim = Simulator()

    def broken():
        yield sim.timeout(1.0)
        raise RuntimeError("unobserved crash")

    sim.process(broken())
    with pytest.raises(RuntimeError, match="unobserved crash"):
        sim.run()


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError):
        sim.process(bad())
        sim.run()


def test_cross_simulator_event_rejected():
    sim_a, sim_b = Simulator(), Simulator()
    foreign = sim_b.timeout(1.0)

    def proc():
        yield foreign

    with pytest.raises(SimulationError):
        sim_a.process(proc())
        sim_a.run()


def test_allof_waits_for_every_child():
    sim = Simulator()
    done_at = []

    def proc():
        t1 = sim.timeout(2.0, value="a")
        t2 = sim.timeout(5.0, value="b")
        values = yield AllOf(sim, [t1, t2])
        done_at.append(sim.now)
        assert sorted(values.values()) == ["a", "b"]

    sim.process(proc())
    sim.run()
    assert done_at == [5.0]


def test_anyof_fires_on_first_child():
    sim = Simulator()
    done_at = []

    def proc():
        t1 = sim.timeout(2.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        values = yield AnyOf(sim, [t1, t2])
        done_at.append(sim.now)
        assert list(values.values()) == ["fast"]

    sim.process(proc())
    sim.run()
    assert done_at == [2.0]


def test_empty_allof_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered
    assert cond.value == {}


def test_allof_fails_if_child_fails():
    sim = Simulator()

    def failing():
        yield sim.timeout(1.0)
        raise KeyError("child")

    caught = []

    def parent():
        try:
            yield AllOf(sim, [sim.process(failing()), sim.timeout(9.0)])
        except KeyError:
            caught.append(sim.now)

    sim.process(parent())
    sim.run()
    assert caught == [1.0]


def test_interrupt_raises_inside_process():
    sim = Simulator()
    log = []

    def worker():
        try:
            yield sim.timeout(100.0)
            log.append("finished")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.process(worker())
    sim.call_after(10.0, lambda: proc.interrupt("load spike"))
    sim.run()
    assert log == [("interrupted", 10.0, "load spike")]


def test_interrupting_finished_process_is_error():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_detaches_from_event():
    """After an interrupt, the original event must not resume the process."""
    sim = Simulator()
    resumes = []

    def worker():
        try:
            yield sim.timeout(5.0)
            resumes.append("timeout")
        except Interrupt:
            yield sim.timeout(100.0)
            resumes.append("after-interrupt")

    proc = sim.process(worker())
    sim.call_after(1.0, lambda: proc.interrupt())
    sim.run()
    assert resumes == ["after-interrupt"]
    assert sim.now == 101.0


def test_stop_event_ends_run_with_value():
    sim = Simulator()
    stop = sim.event()
    sim.call_after(3.0, lambda: stop.succeed("halt"))
    sim.timeout(1000.0)
    result = sim.run(stop_event=stop)
    assert result == "halt"
    assert sim.now == 3.0


def test_stop_event_detached_when_until_exits_first():
    """Regression: run(until=...) must remove _stop_callback on exit.

    A lingering callback made a later trigger of the old stop event
    raise StopSimulation into a run() that passed no stop_event,
    crashing on its `assert stop_event is not None`.
    """
    sim = Simulator()
    stop = sim.event()
    sim.timeout(100.0)
    sim.run(until=1.0, stop_event=stop)  # exits via the until path
    stop.succeed("late")
    sim.timeout(5.0)
    sim.run()  # must not raise; drains the leftover t=100 timeout too
    assert sim.now == 100.0


def test_stop_event_detached_when_agenda_drains():
    sim = Simulator()
    stop = sim.event()
    sim.timeout(1.0)
    sim.run(stop_event=stop)  # exits because the agenda drained
    stop.succeed("late")
    sim.timeout(2.0)
    sim.run()  # must not raise
    assert stop.value == "late"


def test_stop_event_reusable_across_runs_until():
    """The same stop event can arm consecutive bounded runs."""
    sim = Simulator()
    stop = sim.event()
    sim.timeout(100.0)
    sim.run(until=1.0, stop_event=stop)
    sim.run(until=2.0, stop_event=stop)
    sim.call_after(0.5, lambda: stop.succeed("now"))
    assert sim.run(stop_event=stop) == "now"
    assert sim.now == 2.5


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.timeout(float(i))
    sim.run()
    assert sim.stats.events_processed == 5


def test_same_time_batch_preserves_until_semantics():
    """Events exactly at `until` still run; later ones do not."""
    sim = Simulator()
    hits = []
    for _ in range(3):
        sim.call_after(1.0, lambda: hits.append(sim.now))
    sim.call_after(1.5, lambda: hits.append(sim.now))
    sim.run(until=1.0)
    assert hits == [1.0, 1.0, 1.0]
    assert sim.now == 1.0


def test_late_band_runs_after_all_work_of_its_instant():
    """A LATE entry runs after every URGENT and NORMAL entry of its
    instant, those created while it waits included, and before the
    clock moves on."""
    sim = Simulator()
    order = []

    def normal(tag):
        order.append((sim.now, tag))
        if tag == "n1":
            # created mid-instant: a NORMAL timeout and an URGENT
            # event callback, both still ahead of the LATE entry
            sim.call_after(0.0, lambda: normal("n-late-created"))
            sim.event().succeed().add_callback(
                lambda _e: order.append((sim.now, "urgent")))

    def queue_late():
        order.append((sim.now, "queue"))
        sim.call_late(lambda ev: order.append((sim.now, "late")))

    sim.call_at(1.0, queue_late)
    sim.call_at(1.0, lambda: normal("n1"))
    sim.call_at(1.0, lambda: normal("n2"))
    sim.call_at(2.0, lambda: normal("next"))
    sim.run()
    assert order == [(1.0, "queue"), (1.0, "n1"), (1.0, "urgent"),
                     (1.0, "n2"), (1.0, "n-late-created"),
                     (1.0, "late"), (2.0, "next")]


def test_late_band_runs_under_run_until_now():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: sim.call_late(lambda ev: seen.append(sim.now)))
    sim.run(until=1.0)
    assert seen == [1.0]
    assert sim.now == 1.0
    assert sim.peek() == float("inf")


def test_stop_event_mid_instant_leaves_late_entry_for_next_run():
    """A stop that fires mid-instant leaves the instant's LATE entry
    queued; the next run() drains it before the clock advances."""
    sim = Simulator()
    stop = sim.event()
    seen = []

    def perturb():
        sim.call_late(lambda ev: seen.append(("late", sim.now)))
        stop.succeed("halt")

    sim.call_at(1.0, perturb)
    sim.call_at(3.0, lambda: seen.append(("later", sim.now)))
    assert sim.run(stop_event=stop) == "halt"
    assert seen == [] and sim.now == 1.0
    assert sim.peek() == 1.0
    sim.run()
    assert seen == [("late", 1.0), ("later", 3.0)]


def test_call_at_schedules_absolute_time():
    sim = Simulator()
    hits = []
    sim.call_at(12.5, lambda: hits.append(sim.now))
    sim.run()
    assert hits == [12.5]


def test_call_at_in_past_rejected():
    sim = Simulator(start_time=10.0)
    with pytest.raises(ValueError):
        sim.call_at(5.0, lambda: None)


def test_add_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(1.0, value="v")
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["v"]


def test_active_process_tracking():
    sim = Simulator()
    observed = []

    def proc():
        observed.append(sim.active_process)
        yield sim.timeout(1.0)

    p = sim.process(proc())
    sim.run()
    assert observed == [p]
    assert sim.active_process is None


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield sim.timeout(1.0)
        return 1

    def mid():
        v = yield sim.process(leaf())
        yield sim.timeout(1.0)
        return v + 1

    def root():
        v = yield sim.process(mid())
        return v + 1

    proc = sim.process(root())
    sim.run()
    assert proc.value == 3
    assert sim.now == 2.0


def test_many_processes_scale():
    sim = Simulator()
    counter = []

    def proc(i):
        yield sim.timeout(float(i % 17))
        counter.append(i)

    for i in range(500):
        sim.process(proc(i))
    sim.run()
    assert len(counter) == 500
