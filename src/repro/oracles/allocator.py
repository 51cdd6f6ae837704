"""Reference oracle for the max-min flow allocator (§2.1, DESIGN.md §4.2).

:class:`ReferenceTopology` recomputes every in-flight flow on every
reallocation with :func:`reference_max_min`, the pre-overhaul
from-scratch progressive filling.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from ..microgrid.network import Topology

__all__ = ["ReferenceTopology", "reference_max_min"]


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


class ReferenceTopology(Topology):
    """A :class:`Topology` that re-fills every flow on every event."""

    def _allocate(self, seed_edges: Optional[Iterable[int]]) -> None:
        alloc = reference_max_min(
            [f.edge_ids for f in self._flows],
            dict(enumerate(self._edge_cap)))
        for flow, rate in zip(self._flows, alloc):
            flow.allocation = rate
