"""Virtual hosts with a processor-sharing CPU model.

A :class:`Host` executes *compute tasks*.  Tasks on the same host share
the CPU the way timeshared Unix boxes of the GrADS era did: with ``n``
runnable tasks on a host with ``cores`` processors, each task runs at
``speed * min(1, cores / n)`` where ``speed`` is the per-core rate in
Mflop/s.  The paper's "artificial load" experiments (§4.1.2, §4.2) are
expressed as competing tasks that never finish, which is exactly how the
authors loaded their testbed nodes.

Units (project-wide convention): time in seconds, work in Mflop,
``speed`` in Mflop/s, memory sizes in bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional

from ..sim.events import Event
from ..sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["Host", "CacheLevel", "Architecture", "HostFailure"]


class HostFailure(RuntimeError):
    """Raised at tasks running on a host when it crashes."""

    def __init__(self, host_name: str) -> None:
        super().__init__(f"host {host_name} failed")
        self.host_name = host_name

#: relative tolerance when deciding a task's remaining work has drained
_EPS = 1e-9


@dataclass(frozen=True)
class CacheLevel:
    """One level of a host's cache hierarchy.

    ``size`` in bytes, ``line`` in bytes, ``miss_penalty`` in seconds per
    miss (the *additional* latency of missing this level).
    """

    size: int
    line: int = 64
    miss_penalty: float = 1e-7

    def __post_init__(self) -> None:
        if self.size <= 0 or self.line <= 0:
            raise ValueError("cache size and line must be positive")
        if self.miss_penalty < 0:
            raise ValueError("miss_penalty must be non-negative")


@dataclass(frozen=True)
class Architecture:
    """Machine-level parameters the performance models consume (§3.2).

    The GrADS models are architecture independent; converting their
    resource counts (flops, cache misses) to time needs exactly these
    numbers.  ``isa`` matters to the binder: a component compiled for
    one ISA cannot be launched on another without recompilation.
    """

    name: str
    mflops: float
    isa: str = "ia32"
    caches: tuple = (CacheLevel(size=512 * 1024),)
    memory_bytes: int = 512 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.mflops <= 0:
            raise ValueError("mflops must be positive")


@dataclass(eq=False, slots=True)
class _Task:
    """Bookkeeping for one compute task on a host.

    ``eq=False`` keeps identity comparison: tasks double as opaque
    handles, and two background-load tasks are field-identical, so a
    field-based ``__eq__`` would make ``list.remove`` delete the wrong
    one and orphan the caller's handle.  ``slots=True`` because busy
    hosts churn through one of these per compute call.
    """

    remaining: float  # Mflop left
    event: Optional[Event]  # None for background-load tasks
    rate: float = 0.0  # current Mflop/s share
    tag: str = ""
    total: float = field(default=0.0)
    started_at: float = 0.0


class Host:
    """A single grid compute node under processor sharing."""

    def __init__(self, sim: Simulator, name: str, arch: Architecture,
                 cores: int = 1, disk_read_bw: float = 30e6,
                 disk_write_bw: float = 30e6) -> None:
        if cores < 1:
            raise ValueError("a host needs at least one core")
        self.sim = sim
        self.name = name
        self.arch = arch
        self.cores = cores
        #: disk bandwidths in bytes/s, used by the IBP depot model
        self.disk_read_bw = float(disk_read_bw)
        self.disk_write_bw = float(disk_write_bw)
        self.cluster: Optional["Cluster"] = None
        self._tasks: List[_Task] = []
        self._last_update = sim.now
        self._epoch = 0
        #: cumulative Mflop completed on this host (for accounting)
        self.mflop_done = 0.0
        #: False while the host is crashed (see fail()/recover())
        self.alive = True
        #: crash count, for availability accounting
        self.failures = 0
        #: called with this host on every fail() — how higher layers
        #: (e.g. MPI jobs) learn of a crash even when nothing they own
        #: is computing here at that instant
        self._fail_listeners: List[Callable[["Host"], None]] = []

    # -- derived properties -------------------------------------------------
    @property
    def speed(self) -> float:
        """Per-core peak rate in Mflop/s."""
        return self.arch.mflops

    @property
    def n_runnable(self) -> int:
        """Number of tasks (foreground + background) sharing the CPU."""
        return len(self._tasks)

    def availability(self) -> float:
        """Fraction of one core a *new* task would receive right now.

        This is what an NWS CPU sensor measures on a timeshared node.
        A crashed host offers nothing.
        """
        if not self.alive:
            return 0.0
        return min(1.0, self.cores / (len(self._tasks) + 1))

    # -- public API -----------------------------------------------------------
    def compute(self, mflop: float, tag: str = "") -> Event:
        """Run ``mflop`` of work; the returned event triggers when done.

        The event value is the elapsed wall time of the task.
        """
        if mflop < 0:
            raise ValueError(f"negative work: {mflop}")
        ev = self.sim.event(name=f"{self.name}:compute:{tag}")
        if not self.alive:
            # A dead machine rejects work the moment anything touches it.
            ev.fail(HostFailure(self.name))
            return ev
        if mflop == 0:
            # Zero work still takes a scheduling round trip of zero time.
            ev.succeed(0.0)
            return ev
        self._settle()
        task = _Task(remaining=float(mflop), event=ev, tag=tag,
                     total=float(mflop), started_at=self.sim.now)
        self._tasks.append(task)
        self._reschedule()
        return ev

    def add_background_load(self, nprocs: int = 1, tag: str = "load") -> List[_Task]:
        """Add ``nprocs`` competing processes that never finish.

        Returns handles usable with :meth:`remove_background_load`.
        """
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self._settle()
        handles = []
        for _ in range(nprocs):
            task = _Task(remaining=math.inf, event=None, tag=tag)
            self._tasks.append(task)
            handles.append(task)
        self._reschedule()
        return handles

    def remove_background_load(self, handles) -> None:
        """Remove previously added background-load processes."""
        self._settle()
        for handle in handles:
            try:
                self._tasks.remove(handle)
            except ValueError:
                raise ValueError("unknown background load handle") from None
        self._reschedule()

    def background_load(self) -> int:
        """Number of background (never-finishing) load processes."""
        return sum(1 for t in self._tasks if t.event is None)

    def fail(self) -> None:
        """Crash the host: every running task fails with HostFailure,
        background load is dropped, and new work is rejected until
        :meth:`recover`."""
        if not self.alive:
            raise ValueError(f"host {self.name} is already down")
        self._settle()
        self.alive = False
        self.failures += 1
        victims, self._tasks = self._tasks, []
        self._epoch += 1  # invalidate pending completion wake-ups
        trace = self.sim.trace
        if trace is not None and "fault" in trace.active:
            trace.instant("fault", "host-down", host=self.name,
                          killed_tasks=sum(1 for t in victims
                                           if t.event is not None))
        for task in victims:
            if task.event is not None:
                task.event.fail(HostFailure(self.name))
        # Notify after the task events so a direct compute failure is
        # delivered to its waiter first; listener-driven deaths are the
        # fallback for processes blocked elsewhere (e.g. on a transfer).
        for listener in list(self._fail_listeners):
            listener(self)

    def on_fail(self, listener: Callable[["Host"], None]) -> None:
        """Subscribe ``listener(host)`` to this host's crashes."""
        self._fail_listeners.append(listener)

    def recover(self) -> None:
        """Bring a crashed host back, empty and idle."""
        if self.alive:
            raise ValueError(f"host {self.name} is not down")
        self.alive = True
        self._last_update = self.sim.now
        trace = self.sim.trace
        if trace is not None and "fault" in trace.active:
            trace.instant("fault", "host-up", host=self.name)

    def estimate_seconds(self, mflop: float, assume_share: Optional[float] = None
                         ) -> float:
        """Predicted run time of ``mflop`` of work on this host.

        With ``assume_share=None`` the *current* contention level is
        assumed to persist (this is what a scheduler using NWS data
        effectively predicts).
        """
        share = self.availability() if assume_share is None else assume_share
        if share <= 0:
            return math.inf
        return mflop / (self.speed * share)

    # -- processor-sharing internals -------------------------------------------
    def _settle(self) -> None:
        """Account for work done at the current rates since last update."""
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            for task in self._tasks:
                done = task.rate * dt
                if not math.isinf(task.remaining):
                    task.remaining -= done
                    self.mflop_done += done
        self._last_update = now

    def _reschedule(self) -> None:
        """Recompute shares and schedule the next completion wake-up."""
        self._epoch += 1
        n = len(self._tasks)
        if n == 0:
            return
        rate = self.speed * min(1.0, self.cores / n)
        horizon = math.inf
        for task in self._tasks:
            task.rate = rate
            if not math.isinf(task.remaining):
                horizon = min(horizon, task.remaining / rate)
        if math.isinf(horizon):
            return  # only background load is running
        epoch = self._epoch
        self.sim.call_after(max(horizon, 0.0), lambda: self._wake(epoch))

    def _wake(self, epoch: int) -> None:
        if epoch != self._epoch:
            self.sim.stats.wakeups_cancelled += 1
            return  # stale wake-up; the task set changed since
        self._settle()
        # Finished = relatively drained, or the residual would drain
        # within a nanosecond at the current rate (absorbs the absolute
        # float error of time deltas; see the same logic in network.py).
        finished = [t for t in self._tasks
                    if t.event is not None
                    and (t.remaining <= _EPS * t.total
                         or (t.rate > 0 and t.remaining <= t.rate * 1e-9))]
        for task in finished:
            self._tasks.remove(task)
        self._reschedule()
        for task in finished:
            assert task.event is not None
            task.event.succeed(self.sim.now - task.started_at)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Host {self.name} {self.arch.name} {self.speed:.0f}Mflop/s"
                f" x{self.cores} tasks={len(self._tasks)}>")
