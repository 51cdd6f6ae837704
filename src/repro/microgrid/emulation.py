"""MicroGrid-style emulation with virtual-time dilation.

The MicroGrid runs real applications on *scaled* resources: when the
emulation hosts are slower than the virtual hosts they model, the
MicroGrid dilates virtual time by a constant factor so that observed
behaviour, rescaled, matches the modeled grid (Song et al., SC2000).
The paper leans on this: "We earlier ran very similar experiments on
the MacroGrid, validating both the MicroGrid's emulation and the
rescheduling method's practicality."

:func:`dilated_grid` builds a grid whose compute and network rates are
all scaled down by ``dilation`` — the emulation — and
:class:`VirtualClock` converts between emulation time and virtual grid
time.  Experiments that produce matching results on the direct grid and
on a rescaled dilated grid demonstrate exactly the property the paper's
validation established (see ``benchmarks/test_bench_microgrid_validation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim.kernel import Simulator
from .dml import Grid
from .host import Architecture

__all__ = ["VirtualClock", "dilated_grid"]


@dataclass(frozen=True)
class VirtualClock:
    """Conversion between emulation time and virtual-grid time."""

    dilation: float

    def __post_init__(self) -> None:
        if self.dilation <= 0:
            raise ValueError("dilation must be positive")

    def to_virtual(self, emulation_seconds: float) -> float:
        """Observed emulation time -> modeled grid time."""
        return emulation_seconds / self.dilation

    def to_emulation(self, virtual_seconds: float) -> float:
        """Modeled grid time -> when it happens in the emulation."""
        return virtual_seconds * self.dilation


def _scaled_arch(arch: Architecture, dilation: float) -> Architecture:
    return Architecture(
        name=f"{arch.name}@1/{dilation:g}",
        mflops=arch.mflops / dilation,
        isa=arch.isa,
        caches=arch.caches,
        memory_bytes=arch.memory_bytes,
    )


def dilated_grid(builder: Callable[[Simulator], Grid], sim: Simulator,
                 dilation: float) -> Grid:
    """Build ``builder``'s grid with every rate divided by ``dilation``.

    Host speeds, NIC and WAN bandwidths, and disk rates all shrink by
    the same factor; latencies stretch by it.  Running a workload on
    the result and dividing measured times by ``dilation`` reproduces
    the direct grid's timeline exactly (for deterministic workloads),
    which is the MicroGrid's core soundness property.
    """
    clock = VirtualClock(dilation)  # validates the factor
    grid = builder(sim)
    # Scale hosts in place: architectures are frozen, so swap them.
    for host in grid.all_hosts():
        host.arch = _scaled_arch(host.arch, dilation)
        host.disk_read_bw /= dilation
        host.disk_write_bw /= dilation
    for cluster in grid.clusters.values():
        cluster.arch = _scaled_arch(cluster.arch, dilation)
    # Scale every link: bandwidth down, latency up.  Re-adding a link
    # keeps its route-tie position and refreshes the routing caches.
    topology = grid.topology
    for link in topology.links:
        topology.add_link(link.a, link.b, link.bandwidth / dilation,
                          link.latency * dilation)
    topology.local_copy_bw /= dilation
    return grid
