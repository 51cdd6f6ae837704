"""The discrete-event simulation kernel.

:class:`Simulator` owns the event agenda (a heap of ``(time, priority,
sequence, event)`` entries) and the clock.  All grid components — hosts,
network flows, daemons, MPI ranks, monitors — are simulation processes
scheduled through one Simulator instance, so a whole GrADS run is fully
deterministic given its RNG seeds.

The :meth:`Simulator.run` loop is the hottest code in the repository —
every transfer byte and Mflop of the emulated grid is accounted for
through it — so it keeps an inlined copy of :meth:`Simulator.step` with
hoisted locals and batches all entries that share a timestamp (URGENT
event-processing bookkeeping and LATE instant closes included) between
``until`` checks.
``sim.stats`` (:class:`~repro.sim.stats.KernelStats`) counts every event
processed so workloads can report events/sec.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from .events import PENDING, Event, SimulationError, Timeout
from .process import Process
from .stats import KernelStats

__all__ = ["Simulator", "StopSimulation"]

#: Priority bands within one instant.  URGENT is used for event-processing
#: bookkeeping so that an event's callbacks run before same-time timeouts
#: created afterwards.  LATE (:meth:`Simulator.call_late`) closes an
#: instant: it runs after every URGENT and NORMAL entry at its time, those
#: created while it waits included, and before the clock moves on.
URGENT = 0
NORMAL = 1
LATE = 2


class StopSimulation(Exception):
    """Raised internally to end :meth:`Simulator.run` early."""


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock."""

    __slots__ = ("_now", "_agenda", "_seq", "_active_process", "stats",
                 "trace")

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._agenda: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None
        #: substrate performance counters, always on (see repro.sim.stats)
        self.stats = KernelStats()
        #: optional repro.trace.Tracer, attached via Tracer.bind(); None
        #: (the default) keeps every instrumentation site on its no-op
        #: fast path
        self.trace = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (seconds, by project convention)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event creation ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new simulation process running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling internals ----------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        """Place a triggered event on the agenda ``delay`` from now."""
        self._seq += 1
        heapq.heappush(self._agenda, (self._now + delay, priority, self._seq, event))

    def _queue_event(self, event: Event) -> None:
        """Queue an already-triggered event's callbacks to run now."""
        self._seq += 1
        heapq.heappush(self._agenda, (self._now, URGENT, self._seq, event))

    # -- execution ---------------------------------------------------------
    def step(self) -> None:
        """Process the single next event on the agenda."""
        if not self._agenda:
            raise SimulationError("step() on an empty agenda")
        when, _prio, _seq, event = heapq.heappop(self._agenda)
        if when < self._now - 1e-12:
            raise SimulationError("agenda entry in the past (kernel bug)")
        if when > self._now:
            self._now = when
        self.stats.events_processed += 1
        trace = self.trace
        if trace is not None and "kernel" in trace.active:
            trace.kernel_event(when, event)
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._value is not PENDING and not event._ok and not event.defused:
            # A failure that no waiter handled would otherwise vanish;
            # surface it so broken processes abort the run loudly.
            if isinstance(event, Process):
                raise event.value

    def peek(self) -> float:
        """Time of the next agenda entry, or ``inf`` if the agenda is empty."""
        return self._agenda[0][0] if self._agenda else float("inf")

    def run(self, until: Optional[float] = None,
            stop_event: Optional[Event] = None) -> Any:
        """Run until the agenda drains, ``until`` is reached, or
        ``stop_event`` triggers.

        Returns the value of ``stop_event`` if it stopped the run, else
        ``None``.  Failed events that nothing waited on surface their
        exception here rather than being silently dropped.
        """
        if stop_event is not None:
            if stop_event.sim is not self:
                raise SimulationError("stop_event belongs to another simulator")
            stop_event.add_callback(self._stop_callback)
        agenda = self._agenda
        pop = heapq.heappop
        stats = self.stats
        # Tracing state is hoisted: a run without a tracer (or with the
        # kernel category filtered out) pays one local-bool test per
        # event, nothing more.  Bind tracers before run(), not during.
        trace = self.trace
        trace_kernel = trace is not None and "kernel" in trace.active
        try:
            while agenda:
                head = agenda[0][0]
                if until is not None and head > until:
                    self._now = until
                    return None
                # Batch every entry sharing this timestamp — same-time
                # URGENT callbacks (event bookkeeping), timeouts and LATE
                # instant closes run back-to-back without re-checking
                # `until`, so a close always runs with its instant.
                # Callbacks can only append entries at >= the current
                # time, so the heap head never moves before `head`
                # mid-batch.
                while agenda and agenda[0][0] == head:
                    when, _prio, _seq, event = pop(agenda)
                    if when > self._now:
                        self._now = when
                    stats.events_processed += 1
                    if trace_kernel:
                        trace.kernel_event(when, event)
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        for callback in callbacks:
                            callback(event)
                    if (event._value is not PENDING and not event._ok
                            and not event.defused):
                        if isinstance(event, Process):
                            raise event.value
        except StopSimulation:
            assert stop_event is not None
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        finally:
            # Detach on every exit path: a lingering _stop_callback would
            # let the event raise StopSimulation into a later run() that
            # passed no stop_event (and trip its `assert stop_event`).
            if stop_event is not None and stop_event.callbacks is not None:
                try:
                    stop_event.callbacks.remove(self._stop_callback)
                except ValueError:
                    pass
        if until is not None and until > self._now:
            self._now = until
        return None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation()

    # -- conveniences used across the code base -----------------------------
    def call_at(self, when: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"call_at({when}) is in the past (now={self._now})")
        ev = self.timeout(when - self._now)
        ev.add_callback(lambda _e: fn())
        return ev

    def call_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Invoke ``fn()`` after ``delay`` simulated time units."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _e: fn())
        return ev

    def call_late(self, callback: Callable[[Event], None]) -> Event:
        """Invoke ``callback(event)`` in the LATE band at ``now``: after
        all other work of this instant, before the clock advances.

        ``callback`` becomes the event's callback as is, so a caller
        that closes many instants can pass one bound method each time.
        Like :class:`Timeout`, the event's slots are written directly:
        a topology queues one of these per perturbed instant.
        """
        ev = Event.__new__(Event)
        ev.sim = self
        ev.callbacks = [callback]
        ev._value = None
        ev._ok = True
        ev.name = ""
        ev.defused = False
        self._seq += 1
        heapq.heappush(self._agenda, (self._now, LATE, self._seq, ev))
        return ev
