"""MPI process swapping (§4.2, after Sievert & Casanova).

"The MPI application is launched with more machines than will actually
be used for the computation; some of these machines become part of the
computation (the active set) while some do nothing initially (the
inactive set).  The user's application sees only the active processes
in the main communicator; communication calls are hijacked ...  the
contract monitor periodically checks the performance of the machines
and swaps slower machines in the active set with faster machines in the
inactive set."

:class:`SwappableJob` reproduces that contract: the application is
written against *logical* ranks ``0..active_n-1``; each logical rank is
backed by one machine from the over-provisioned pool, and a swap rebinds
a logical rank to a different pool machine, paying the cost of moving
that rank's working state.  Swaps requested mid-iteration take effect at
the next iteration boundary (``sync_point``), which is when the real
implementation's hijacked communication layer applies them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from ..microgrid.host import Host
from ..sim.events import Event
from ..sim.kernel import Simulator
from .comm import MpiContext, MpiError, MpiJob

__all__ = ["SwappableJob", "SwapRecord"]


@dataclass(frozen=True)
class SwapRecord:
    """One executed swap, for experiment traces."""

    time: float
    logical_rank: int
    old_host: str
    new_host: str
    state_bytes: float
    seconds: float


class SwappableJob:
    """An MPI job launched on ``len(pool)`` machines, computing on the
    first ``active_n`` of them."""

    def __init__(self, sim: Simulator, topology, pool: List[Host],
                 active_n: int, state_bytes_per_rank: float = 0.0,
                 name: str = "swapjob") -> None:
        if active_n < 1 or active_n > len(pool):
            raise MpiError(
                f"active set size {active_n} not in 1..{len(pool)}")
        self.sim = sim
        self.active_n = active_n
        self.state_bytes_per_rank = float(state_bytes_per_rank)
        # The underlying job has one rank per *logical* process; its
        # rank->host mapping is exactly the active-set binding.
        self.job = MpiJob(sim, topology, pool[:active_n], name=name)
        self._pool: List[Host] = list(pool)
        self._active: List[Host] = pool[:active_n]
        self._inactive: List[Host] = pool[active_n:]
        self._pending_swaps: List[Tuple[int, Host]] = []
        self.swap_log: List[SwapRecord] = []

    # -- set inspection ----------------------------------------------------------
    def active_hosts(self) -> List[Host]:
        return list(self._active)

    def inactive_hosts(self) -> List[Host]:
        return list(self._inactive)

    def pool_hosts(self) -> List[Host]:
        return list(self._pool)

    # -- swap requests ----------------------------------------------------------
    def request_swap(self, logical_rank: int, new_host: Host) -> None:
        """Queue a swap; it is applied at the next iteration boundary."""
        if not 0 <= logical_rank < self.active_n:
            raise MpiError(f"logical rank {logical_rank} is not active")
        if new_host not in self._inactive:
            raise MpiError(f"{new_host.name} is not in the inactive set")
        if any(h is new_host for _r, h in self._pending_swaps):
            raise MpiError(f"{new_host.name} already claimed by a pending swap")
        self._pending_swaps.append((logical_rank, new_host))

    @property
    def has_pending_swaps(self) -> bool:
        return bool(self._pending_swaps)

    def sync_point(self, ctx: MpiContext):
        """Generator each rank runs at iteration boundaries.

        All ranks barrier; then rank 0's arrival applies the pending
        swaps (moving state over the network); then everyone barriers
        again so no rank races ahead of a rebinding.  With no pending
        swaps, this is just two cheap barriers.
        """
        yield from ctx.comm.barrier(ctx.rank)
        if ctx.rank == 0 and self._pending_swaps:
            swaps, self._pending_swaps = self._pending_swaps, []
            for logical_rank, new_host in swaps:
                yield from self._apply_swap(logical_rank, new_host)
        yield from ctx.comm.barrier(ctx.rank)

    def _apply_swap(self, logical_rank: int, new_host: Host):
        old_host = self._active[logical_rank]
        if new_host not in self._inactive:
            return  # claimed meanwhile; drop silently (idempotence)
        started = self.sim.now
        if self.state_bytes_per_rank > 0:
            yield self.job.topology.transfer(
                old_host.name, new_host.name, self.state_bytes_per_rank,
                tag=f"swap:r{logical_rank}")
        self._inactive.remove(new_host)
        self._inactive.append(old_host)
        self._active[logical_rank] = new_host
        self.job.set_rank_host(logical_rank, new_host)
        self.swap_log.append(SwapRecord(
            time=self.sim.now, logical_rank=logical_rank,
            old_host=old_host.name, new_host=new_host.name,
            state_bytes=self.state_bytes_per_rank,
            seconds=self.sim.now - started))
        trace = self.sim.trace
        if trace is not None and "reschedule" in trace.active:
            trace.complete("reschedule", "swap", ts=started,
                           dur=self.sim.now - started, rank=logical_rank,
                           old_host=old_host.name, new_host=new_host.name,
                           bytes=self.state_bytes_per_rank)

    # -- launch -------------------------------------------------------------------
    def launch(self, body: Callable[[MpiContext], object]) -> Event:
        """Launch the application on the active set."""
        done = self.job.launch(body)
        # Swaps requested during the application's final iteration (a
        # rescheduler period can land between the last sync point and
        # completion) have no boundary left to apply them; discard them
        # when the job ends instead of leaking the queue forever.
        done.add_callback(self._on_job_end)
        return done

    def _on_job_end(self, _event: Event) -> None:
        self._pending_swaps = []
