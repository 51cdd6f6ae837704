"""The MicroGrid: a controlled emulation of the Grid.

Virtual hosts (processor-sharing CPUs), clusters, routed network
topologies with max-min fair bandwidth sharing, background-load
injection and the canonical GrADS testbed descriptions.
"""

from .cluster import Cluster
from .dml import DMLError, Grid, parse_grid, parse_quantity
from .emulation import VirtualClock, dilated_grid
from .failures import RandomFailureInjector, ScheduledFailure
from .host import Architecture, CacheLevel, Host, HostFailure
from .loadgen import RandomLoadGenerator, ScheduledLoad, TraceLoad
from .network import Flow, Link, NetworkError, Topology
from .testbed import (
    ARCH_ATHLON_1700,
    ARCH_IA64_900,
    ARCH_PII_450,
    ARCH_PII_550,
    ARCH_PIII_933,
    fig3_testbed,
    fig4_testbed,
    grads_macrogrid,
    heterogeneous_testbed,
)

__all__ = [
    "ARCH_ATHLON_1700",
    "ARCH_IA64_900",
    "ARCH_PII_450",
    "ARCH_PII_550",
    "ARCH_PIII_933",
    "Architecture",
    "CacheLevel",
    "Cluster",
    "DMLError",
    "Flow",
    "Grid",
    "Host",
    "HostFailure",
    "Link",
    "NetworkError",
    "RandomFailureInjector",
    "RandomLoadGenerator",
    "ScheduledFailure",
    "ScheduledLoad",
    "Topology",
    "TraceLoad",
    "VirtualClock",
    "dilated_grid",
    "fig3_testbed",
    "fig4_testbed",
    "grads_macrogrid",
    "heterogeneous_testbed",
    "parse_grid",
    "parse_quantity",
]
