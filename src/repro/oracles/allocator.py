"""Reference oracles for the max-min flow allocator (§2.1, DESIGN.md §4.2).

Both oracles fill at every flow event, as :class:`Topology` did before
it coalesced an instant's fills into one close (:class:`EagerTopology`).
:class:`ReferenceTopology` recomputes every in-flight flow on every
reallocation with :func:`reference_max_min`, the pre-overhaul
from-scratch progressive filling; it agrees with the fast path to a
relative 1e-9.  :class:`PerFlowTopology` fills the perturbed component
flow by flow, the allocator the path-bundled one replaced; it agrees
bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..microgrid.network import Flow, Topology

__all__ = ["EagerTopology", "PerFlowTopology", "ReferenceTopology",
           "reference_max_min", "run_flow_bench"]


def reference_max_min(paths: Sequence[Sequence[int]],
                      capacity: Dict[int, float]) -> List[float]:
    """Per-flow max-min fair rates, O(rounds × flows × path):
    ``paths[i]`` lists the edge ids flow ``i`` crosses and ``capacity``
    maps edge id to bandwidth.  Pure — no topology state."""
    n = len(paths)
    alloc = [0.0] * n
    residual: Dict[int, float] = {}
    users: Dict[int, List[int]] = {}
    for i, path in enumerate(paths):
        for e in path:
            residual.setdefault(e, capacity[e])
            users.setdefault(e, []).append(i)
    unfixed = set(range(n))
    while unfixed:
        # Find the bottleneck: the edge with the smallest fair share.
        best_e, best_share = None, math.inf
        for e, flows in users.items():
            active = [i for i in flows if i in unfixed]
            if not active:
                continue
            share = residual[e] / len(active)
            if share < best_share:
                best_share, best_e = share, e
        if best_e is None:
            break  # remaining flows cross no constrained edge
        for i in [i for i in users[best_e] if i in unfixed]:
            alloc[i] = best_share
            unfixed.discard(i)
            for e in paths[i]:
                residual[e] = max(residual[e] - best_share, 0.0)
    return alloc


class EagerTopology(Topology):
    """A :class:`Topology` that fills at every flow event, through the
    :meth:`_allocate` hook its subclasses define.

    ``fill_instants`` counts the distinct instants with at least one
    fill: the ``reallocations`` the coalescing :class:`Topology` counts
    on the same run.
    """

    def __init__(self, sim, local_copy_bw: float = 1e9) -> None:
        super().__init__(sim, local_copy_bw)
        self.fill_instants = 0
        self._last_fill = math.nan

    def _perturb(self, seed_edges: Optional[Sequence[int]]) -> None:
        """Recompute max-min fair rates after a flow/topology change.

        With ``seed_edges`` (the edges of the arriving or departing
        flows) only the connected component of flows transitively
        sharing an edge with the perturbation is recomputed; rates
        outside that component cannot change.  Without it (a topology
        mutation) everything is redone.
        """
        self._epoch += 1
        self.sim.stats.reallocations += 1
        if self.sim.now != self._last_fill:  # simlint: ignore[SL005] — one instant is one exact clock value, as the kernel batches it
            self._last_fill = self.sim.now
            self.fill_instants += 1
        if not self._flows:
            return
        self._allocate(seed_edges)
        self._schedule_next_completion()

    def _allocate(self, seed_edges: Optional[Iterable[int]]) -> None:
        """Set ``flow.allocation`` for every flow whose rate can move."""
        raise NotImplementedError


class ReferenceTopology(EagerTopology):
    """A :class:`Topology` that re-fills every flow on every event."""

    def _allocate(self, seed_edges: Optional[Iterable[int]]) -> None:
        alloc = reference_max_min(
            [f.edge_ids for f in self._flows],
            dict(enumerate(self._edge_cap)))
        for flow, rate in zip(self._flows, alloc):
            flow.allocation = rate


def _per_flow_component(users: Sequence[Sequence[Flow]],
                       seed_edges: Iterable[int]) -> List[Flow]:
    """Flows transitively sharing an edge with ``seed_edges``, in
    first-appearance order; ``users[eid]`` lists edge ``eid``'s flows
    in start order."""
    pending = list(seed_edges)
    seen_edges = set(pending)
    seen_flows = set()
    component: List[Flow] = []
    while pending:
        eid = pending.pop()
        for flow in users[eid]:
            fid = id(flow)
            if fid in seen_flows:
                continue
            seen_flows.add(fid)
            component.append(flow)
            for other in flow.edge_ids:
                if other not in seen_edges:
                    seen_edges.add(other)
                    pending.append(other)
    return component


def _per_flow_fill(cap: Sequence[float], users: Sequence[Sequence[Flow]],
                  flows: List[Flow]) -> None:
    """Progressive filling over ``flows`` (a closed component), one
    flow at a time: sets every ``flow.allocation``."""
    residual: Dict[int, float] = {}
    nactive: Dict[int, int] = {}
    for flow in flows:
        flow.allocation = 0.0
        for eid in flow.edge_ids:
            if eid in nactive:
                nactive[eid] += 1
            else:
                nactive[eid] = 1
                residual[eid] = cap[eid]
    unfixed = {id(f) for f in flows}
    while unfixed:
        best_eid, best_share = -1, math.inf
        for eid, n in nactive.items():
            if n:
                share = residual[eid] / n
                if share < best_share:
                    best_share, best_eid = share, eid
        if best_eid < 0:
            break  # remaining flows cross no constrained edge
        for flow in users[best_eid]:
            if id(flow) in unfixed:
                flow.allocation = best_share
                unfixed.discard(id(flow))
                for eid in flow.edge_ids:
                    remaining = residual[eid] - best_share
                    residual[eid] = remaining if remaining > 0.0 else 0.0
                    nactive[eid] -= 1


class PerFlowTopology(EagerTopology):
    """A :class:`Topology` that re-fills the perturbed component flow
    by flow, over an edge→flows index rebuilt in start order."""

    def _allocate(self, seed_edges: Optional[Iterable[int]]) -> None:
        users: List[List[Flow]] = [[] for _ in self._edge_cap]
        for flow in self._flows:
            for eid in flow.edge_ids:
                users[eid].append(flow)
        if seed_edges is None:
            _per_flow_fill(self._edge_cap, users, self._flows)
        else:
            component = _per_flow_component(users, seed_edges)
            if component:
                _per_flow_fill(self._edge_cap, users, component)


def run_flow_bench(bench: Callable[..., dict], topology_cls=Topology,
                   **kwargs) -> dict:
    """``bench(topology_cls=topology_cls, **kwargs)`` for a flow
    benchmark (``run_substrate_bench``, ``run_fanout_bench``); on an
    :class:`EagerTopology` the result also carries its
    ``fill_instants``."""
    built: List[Topology] = []

    def build(sim) -> Topology:
        built.append(topology_cls(sim))
        return built[-1]

    result = bench(topology_cls=build, **kwargs)
    if isinstance(built[0], EagerTopology):
        result["fill_instants"] = built[0].fill_instants
    return result
