"""Network topology and max-min fair flow simulation.

The MicroGrid paper emulates wide-area links with an online network
simulator; we reproduce the behaviour that matters to scheduling and
rescheduling decisions: per-path latency and *shared* bandwidth.  Every
transfer is a flow routed over the shortest path (by latency) between
two hosts; link capacities are divided among the flows crossing them by
progressive-filling **max-min fairness**, recomputed once per simulated
instant at which a flow starts or finishes (or the topology changes).

The hot paths are engineered for scale (GridSim-style indexed event
processing rather than per-event rescans):

* **Incremental reallocation.**  Directed edges are interned to integer
  ids the first time a flow crosses them.  A flow arrival or departure
  only re-runs progressive filling over the *connected component* of
  edges and flows actually perturbed — max-min fairness is separable
  across flow-disjoint components, so untouched components keep their
  rates.

* **One fill per instant.**  Flow events at one instant only record
  their seed edges (and bump the completion epoch); a single close in
  the kernel's LATE band fills what they perturbed and schedules the
  next completion.  Rates only act over positive intervals, so the
  result is bit-identical to filling at every event provided each
  component gets the fill its *last* perturbation would have given it:
  the close replays the records newest first, each one filling the
  component its own seeds reach minus the bundles a newer record
  already filled (see :meth:`Topology._refill`).

* **Path bundles.**  Every flow on one route gets the same max-min
  rate, so the topology indexes a :class:`_Bundle` per live
  ``edge_ids`` tuple (its flows in start order) and a per-edge list of
  bundles; components are discovered, and filled, a bundle at a time.
  Two rules keep the rates bit-identical to filling flow by flow (the
  :mod:`repro.oracles.allocator` oracles):

  - each edge lists its bundles by the start order of their *oldest
    live member* — exactly the first-appearance order of a per-flow
    edge→flows index in start order — so ties between equal shares
    fall the same way (a bundle whose oldest member leaves is
    re-inserted with ``bisect``);
  - fixing a bundle of ``k`` flows subtracts the round's share from
    each of its edges ``k`` times, clamping at 0 each time, because
    one ``k * share`` step rounds differently.

* **Routing cache.**  Routes are computed one *source* at a time with a
  single-source Dijkstra pass (all destinations at once) and cached
  until the topology mutates; per-pair ``(latency, bottleneck)`` tuples
  are memoised so :meth:`Topology.estimate_transfer_seconds` is a dict
  lookup.  Hits/misses are counted in ``sim.stats``.

Capacities are in bytes/s, latencies in seconds, transfers in bytes.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.events import Event
from ..sim.kernel import Simulator
from .host import Host

__all__ = ["Link", "Topology", "Flow", "NetworkError"]

_EPS = 1e-9


class NetworkError(RuntimeError):
    """Raised for malformed topologies or unroutable transfers."""


@dataclass(frozen=True)
class Link:
    """A bidirectional network link (each direction has full capacity)."""

    a: str
    b: str
    bandwidth: float  # bytes/s
    latency: float  # seconds

    def __post_init__(self) -> None:
        # Non-finite values are rejected too: an all-``inf`` path gives
        # no finite max-min share, so its flows would never finish.
        if not (math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("link bandwidth must be positive and finite")
        if not (math.isfinite(self.latency) and self.latency >= 0):
            raise ValueError("link latency must be non-negative and finite")


@dataclass
class Flow:
    """An in-flight transfer."""

    src: str
    dst: str
    path: Tuple[Tuple[str, str], ...]  # directed edges as ordered node pairs
    remaining: float  # bytes
    event: Event
    allocation: float = 0.0  # bytes/s currently granted
    started_at: float = 0.0
    total: float = 0.0
    edge_ids: Tuple[int, ...] = ()  # interned directed-edge ids (see Topology)
    seq: int = -1  # start order among the topology's flows, once streaming


class _Bundle:
    """The in-flight flows on one route, in start order.

    ``mark`` replaces identity sets in the allocator: a bundle whose
    mark equals the current fill's token is in the component and not
    yet fixed, and one marked at or above the first token of the
    instant's replay (:meth:`Topology._refill`) is already claimed.
    """

    __slots__ = ("edge_ids", "flows", "mark")

    def __init__(self, first: Flow) -> None:
        self.edge_ids = first.edge_ids
        self.flows: List[Flow] = [first]
        self.mark = 0


def _oldest(bundle: _Bundle) -> int:
    """Sort key of a bundle in its edges' lists: oldest member's start."""
    return bundle.flows[0].seq


class Topology:
    """A routed grid network carrying max-min fair flows.

    Nodes are strings (host names and router names); hosts must be
    attached via :meth:`attach_host` before they can transfer.  Local
    (same-host) transfers complete at ``local_copy_bw``.
    """

    def __init__(self, sim: Simulator, local_copy_bw: float = 1e9) -> None:
        self.sim = sim
        # node -> neighbour -> link, both in link insertion order (the
        # order Dijkstra scans neighbours in, so it pins route ties)
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}  # sorted pair -> link
        self.local_copy_bw = float(local_copy_bw)
        self._hosts: Dict[str, Host] = {}
        self._flows: List[Flow] = []  # start order
        self._starts = 0  # flows ever started (next Flow.seq)
        self._last_update = sim.now
        self._epoch = 0
        self._mark = 0  # fill token (see _Bundle.mark)
        # seed edges of this instant's perturbations, oldest first (None:
        # full refill), and whether its close is already queued
        self._perturbed: List[Optional[Sequence[int]]] = []
        self._close_queued = False
        self._close = self._close_instant  # one bound callable, reused
        self._last_close = math.nan  # instant of the latest close
        # -- edge interning (stable across route-cache invalidation) --
        self._edge_ids: Dict[Tuple[str, str], int] = {}  # directed pair -> id
        self._edge_cap: List[float] = []  # id -> bandwidth (refreshed on mutation)
        self._bundles: Dict[Tuple[int, ...], _Bundle] = {}  # live routes
        self._edge_bundles: List[List[_Bundle]] = []  # id -> bundles, by _oldest
        # -- routing caches (cleared on any topology mutation) --
        self._sssp: Dict[str, Tuple[Dict[str, float], Dict[str, List[str]]]] = {}
        self._metrics: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: cumulative bytes delivered (for accounting/benchmarks)
        self.bytes_delivered = 0.0

    # -- construction -----------------------------------------------------------
    def add_node(self, name: str) -> None:
        """Add a routing-only node (e.g. a WAN router)."""
        self._adj.setdefault(name, {})
        self._topology_changed()

    def attach_host(self, host: Host) -> None:
        """Register a host as an endpoint node."""
        if host.name in self._hosts:
            raise NetworkError(f"duplicate host {host.name!r}")
        self._hosts[host.name] = host
        self._adj.setdefault(host.name, {})
        self._topology_changed()

    def add_link(self, a: str, b: str, bandwidth: float, latency: float) -> Link:
        """Connect two nodes with a bidirectional link.

        Adding (or re-adding, to change bandwidth/latency) a link while
        flows are in flight settles their progress and reallocates, so
        the new capacity takes effect immediately rather than at the
        next unrelated flow event.  Re-adding keeps the link's place in
        the neighbour order, so it cannot reorder route ties.
        """
        link = Link(a, b, float(bandwidth), float(latency))  # validates
        self._adj.setdefault(a, {})[b] = link
        self._adj.setdefault(b, {})[a] = link
        self._links[(a, b) if a <= b else (b, a)] = link
        # Edge ids name directed node pairs and outlive this rewrite;
        # only their capacities move.
        for pair in ((a, b), (b, a)):
            eid = self._edge_ids.get(pair)
            if eid is not None:
                self._edge_cap[eid] = link.bandwidth
        self._topology_changed()
        return link

    def __contains__(self, node: str) -> bool:
        return node in self._adj

    @property
    def links(self) -> List[Link]:
        """Every link once, in insertion order, as last (re)added."""
        return list(self._links.values())

    def _topology_changed(self) -> None:
        """Invalidate routing caches and re-fit in-flight flows."""
        self._sssp.clear()
        self._metrics.clear()
        if self._flows:
            # In-flight flows keep their paths but must share the new
            # capacities from *now*; without this they would coast on
            # stale allocations until the next flow arrival/departure.
            self._settle()
            self._perturb(None)

    def host(self, name: str) -> Host:
        """Look up an attached host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    @property
    def hosts(self) -> List[Host]:
        return list(self._hosts.values())

    # -- routing ------------------------------------------------------------------
    def _dijkstra(self, src: str) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
        """Latency distances and paths from ``src`` to every reachable node.

        Tie rule: the heap orders equal distances by push order,
        neighbours are scanned in link insertion order, and a path is
        only replaced by a strictly shorter one.  Routes feed every
        transfer estimate and report digest, so tests pin this rule
        (DESIGN.md §2.1).
        """
        adj = self._adj
        dist: Dict[str, float] = {}
        seen: Dict[str, float] = {src: 0.0}
        paths: Dict[str, List[str]] = {src: [src]}
        pushes = 0
        fringe: List[Tuple[float, int, str]] = [(0.0, pushes, src)]
        while fringe:
            d, _, v = heapq.heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, link in adj[v].items():
                vu_dist = d + link.latency
                if u not in dist and (u not in seen or vu_dist < seen[u]):
                    seen[u] = vu_dist
                    pushes += 1
                    heapq.heappush(fringe, (vu_dist, pushes, u))
                    paths[u] = paths[v] + [u]
        return dist, paths

    def _sssp_from(self, src: str) -> Tuple[Dict[str, float], Dict[str, List[str]]]:
        """Distances and paths from ``src`` to every reachable node."""
        entry = self._sssp.get(src)
        if entry is None:
            self.sim.stats.route_cache_misses += 1
            if src not in self._adj:
                raise NetworkError(f"no route from unknown node {src!r}")
            entry = self._dijkstra(src)
            self._sssp[src] = entry
        else:
            self.sim.stats.route_cache_hits += 1
        return entry

    def route(self, src: str, dst: str) -> List[str]:
        """Shortest path by latency between two nodes."""
        _dist, paths = self._sssp_from(src)
        path = paths.get(dst)
        if path is None:
            raise NetworkError(f"no route {src!r} -> {dst!r}")
        return path

    def _path_metrics(self, src: str, dst: str) -> Tuple[float, float]:
        """Memoised ``(latency, bottleneck_bw)`` of the routed path."""
        key = (src, dst)
        metrics = self._metrics.get(key)
        if metrics is None:
            dist, paths = self._sssp_from(src)
            path = paths.get(dst)
            if path is None:
                raise NetworkError(f"no route {src!r} -> {dst!r}")
            adj = self._adj
            bottleneck = min(adj[u][v].bandwidth
                             for u, v in zip(path, path[1:]))
            metrics = (dist[dst], bottleneck)
            self._metrics[key] = metrics
        else:
            self.sim.stats.route_cache_hits += 1
        return metrics

    def path_latency(self, src: str, dst: str) -> float:
        """One-way latency along the routed path (0 for local)."""
        if src == dst:
            return 0.0
        return self._path_metrics(src, dst)[0]

    def path_bottleneck_bw(self, src: str, dst: str) -> float:
        """Raw bottleneck capacity along the path, ignoring other flows."""
        if src == dst:
            return self.local_copy_bw
        return self._path_metrics(src, dst)[1]

    def estimate_transfer_seconds(self, src: str, dst: str, nbytes: float) -> float:
        """Latency + bytes/bottleneck estimate, as an NWS client would make.

        This deliberately ignores current contention: it is the number a
        scheduler computes from NWS latency/bandwidth reports.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        if src == dst:
            return nbytes / self.local_copy_bw
        latency, bottleneck = self._path_metrics(src, dst)
        return latency + nbytes / bottleneck

    # -- transfers -------------------------------------------------------------------
    def transfer(self, src: str, dst: str, nbytes: float, tag: str = "") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; event triggers on arrival.

        The event value is the elapsed transfer time in seconds.
        """
        if nbytes < 0:
            raise ValueError("negative transfer size")
        ev = self.sim.event(name=f"xfer:{src}->{dst}:{tag}")
        start = self.sim.now
        if src == dst:
            delay = nbytes / self.local_copy_bw
            self.sim.call_after(delay, lambda: ev.succeed(self.sim.now - start))
            return ev
        path_nodes = self.route(src, dst)
        latency = self._path_metrics(src, dst)[0]
        if nbytes == 0:
            self.sim.call_after(latency, lambda: ev.succeed(self.sim.now - start))
            return ev
        edges = tuple(zip(path_nodes, path_nodes[1:]))
        flow = Flow(src=src, dst=dst, path=edges, remaining=float(nbytes),
                    event=ev, started_at=start, total=float(nbytes),
                    edge_ids=self._intern_edges(edges))
        # The first byte spends `latency` in the pipe before streaming
        # begins; model it as a delayed flow start.
        self.sim.call_after(latency, lambda: self._start_flow(flow))
        return ev

    # -- edge interning -------------------------------------------------------------
    def _intern_edges(self, edges: Iterable[Tuple[str, str]]) -> Tuple[int, ...]:
        """Map directed edges to stable integer ids, registering new ones.

        Links are full duplex: (u, v) and (v, u) intern to distinct ids
        with independent capacity.
        """
        edge_ids = self._edge_ids
        out = []
        for pair in edges:
            eid = edge_ids.get(pair)
            if eid is None:
                eid = len(self._edge_cap)
                edge_ids[pair] = eid
                u, v = pair
                self._edge_cap.append(self._adj[u][v].bandwidth)
                self._edge_bundles.append([])
            out.append(eid)
        return tuple(out)

    # -- max-min fair sharing ------------------------------------------------------
    def _start_flow(self, flow: Flow) -> None:
        self._settle()
        flow.seq = self._starts
        self._starts += 1
        self._flows.append(flow)
        bundle = self._bundles.get(flow.edge_ids)
        if bundle is None:
            bundle = self._bundles[flow.edge_ids] = _Bundle(flow)
            # the newest start sorts last on every edge
            for eid in flow.edge_ids:
                self._edge_bundles[eid].append(bundle)
        else:
            bundle.flows.append(flow)
        trace = self.sim.trace
        if trace is not None and "network" in trace.active:
            trace.instant("network", "flow-add", src=flow.src, dst=flow.dst,
                          bytes=flow.total, active=len(self._flows))
        self._perturb(flow.edge_ids)

    def _settle(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            delivered = 0.0
            for flow in self._flows:
                moved = flow.allocation * dt
                flow.remaining -= moved
                delivered += moved
            self.bytes_delivered += delivered
        self._last_update = now

    # -- reallocation ---------------------------------------------------------------
    def _perturb(self, seed_edges: Optional[Sequence[int]]) -> None:
        """Record a flow or topology change for this instant's close.

        ``seed_edges`` are the edges of the arriving or departing flows;
        ``None`` (a topology mutation) asks for a full refill, which
        supersedes every older record.  The epoch moves at once, so
        completion wake-ups already queued go stale here, not at the
        close.
        """
        self._epoch += 1
        if seed_edges is None:
            self._perturbed.clear()
        self._perturbed.append(seed_edges)
        if not self._close_queued:
            self._close_queued = True
            self.sim.call_late(self._close)

    def _close_instant(self, _event: Event) -> None:
        # Dispatched through the attribute so the close always runs as
        # ``Topology._wake``, however that method is wrapped.
        self._wake(None)

    def _refill(self) -> None:
        """Run the fills this instant's perturbations still owe.

        The records are replayed newest first.  Each one fills the
        component its own seed edges reach in the current state, less
        the bundles a newer record already claimed; a ``None`` record
        fills every unclaimed bundle, by :func:`_oldest`.  Filling at
        every event leaves each bundle at the rate of the last fill that
        reached it, whose discovery order broke ties between equal
        shares; this replay gives every bundle that fill, in that order.
        Seeding one fill with the union of the seeds would not: the
        discovery would meet edges in another order.
        """
        records = self._perturbed
        if not records:
            return
        self._perturbed = []
        live = len(self._bundles)
        if not live:
            return
        self._mark += 1
        claimed = self._mark  # marks >= claimed: filled by this replay
        for seed_edges in reversed(records):
            self._mark += 1
            mark = self._mark
            if seed_edges is None:
                bundles = sorted((b for b in self._bundles.values()
                                  if b.mark < claimed), key=_oldest)
                for bundle in bundles:
                    bundle.mark = mark
            else:
                bundles = self._component_bundles(seed_edges, mark, claimed)
            if bundles:
                self._fill(bundles, mark, claimed)
                live -= len(bundles)
            if seed_edges is None or not live:
                return

    def _component_bundles(self, seed_edges: Iterable[int], mark: int,
                           claimed: int) -> List[_Bundle]:
        """Bundles transitively sharing an edge with ``seed_edges``,
        in first-appearance order, skipping those marked ``claimed`` or
        later; each one found is marked with ``mark``."""
        edge_bundles = self._edge_bundles
        pending = list(seed_edges)
        seen_edges = set(pending)
        component: List[_Bundle] = []
        while pending:
            eid = pending.pop()
            for bundle in edge_bundles[eid]:
                if bundle.mark >= claimed:
                    continue
                bundle.mark = mark
                component.append(bundle)
                for other in bundle.edge_ids:
                    if other not in seen_edges:
                        seen_edges.add(other)
                        pending.append(other)
        return component

    def _fill(self, bundles: List[_Bundle], mark: int, done: int) -> None:
        """Progressive filling over ``bundles`` (a closed component, each
        marked ``mark``); a fixed bundle is marked ``done``.

        Per-edge residual capacity and unfixed-flow counts are kept as
        dicts keyed by edge id in first-appearance order (which decides
        ties between equal shares), so each round is one O(edges) scan
        plus O(path) updates per newly fixed bundle.
        """
        cap = self._edge_cap
        edge_bundles = self._edge_bundles
        residual: Dict[int, float] = {}
        nactive: Dict[int, int] = {}
        for bundle in bundles:
            k = len(bundle.flows)
            for eid in bundle.edge_ids:
                if eid in nactive:
                    nactive[eid] += k
                else:
                    nactive[eid] = k
                    residual[eid] = cap[eid]
        unfixed = len(bundles)
        while unfixed:
            best_eid, best_share = -1, math.inf
            for eid, n in nactive.items():
                share = residual[eid] / n
                if share < best_share:
                    best_share, best_eid = share, eid
            if best_eid < 0:
                break  # remaining flows cross no constrained edge
            for bundle in edge_bundles[best_eid]:
                if bundle.mark != mark:
                    continue
                bundle.mark = done
                unfixed -= 1
                flows = bundle.flows
                k = len(flows)
                for flow in flows:
                    flow.allocation = best_share
                for eid in bundle.edge_ids:
                    n = nactive[eid] - k
                    if not n:
                        # every flow on it is fixed: its residual is
                        # never read again (deleting keeps key order)
                        del nactive[eid]
                        continue
                    nactive[eid] = n
                    # one clamped subtraction per flow, as a per-flow
                    # fill does: k * best_share would round differently
                    remaining = residual[eid]
                    for _ in range(k):
                        remaining -= best_share
                        if not remaining > 0.0:
                            remaining = 0.0
                            break
                    residual[eid] = remaining

    def _schedule_next_completion(self) -> None:
        horizon = math.inf
        for flow in self._flows:
            if flow.allocation > 0:
                eta = flow.remaining / flow.allocation
                if eta < horizon:
                    horizon = eta
        if math.isinf(horizon):
            return
        epoch = self._epoch
        self.sim.call_after(max(horizon, 0.0), lambda: self._wake(epoch))

    def _wake(self, epoch: Optional[int]) -> None:
        """Completion wake-up scheduled by the close of ``epoch``, or
        (``None``) the close of a perturbed instant: fill, then schedule
        the next completion wake-up."""
        trace = self.sim.trace
        if trace is not None and "network" not in trace.active:
            trace = None
        if epoch is None:
            self._close_queued = False
            if self.sim.now != self._last_close:  # simlint: ignore[SL005] — one instant is one exact clock value, as the kernel batches it
                self._last_close = self.sim.now
                self.sim.stats.reallocations += 1
            if trace is not None:
                records = self._perturbed
                trace.instant("network", "realloc", epoch=self._epoch,
                              flows=len(self._flows),
                              scoped=not records or records[0] is not None)
            self._refill()
            self._schedule_next_completion()
            return
        if epoch != self._epoch:
            self.sim.stats.wakeups_cancelled += 1
            if trace is not None:
                trace.instant("network", "stale-wakeup", epoch=epoch,
                              current=self._epoch)
            return
        self._settle()
        # Two completion criteria: the work is relatively drained, or the
        # residual would drain within a nanosecond at the current rate.
        # The latter absorbs the absolute float error of time deltas
        # (|now| * eps * rate), which can exceed any relative threshold
        # and would otherwise cause sub-ulp wakeup livelocks.
        finished = [f for f in self._flows
                    if f.remaining <= _EPS * f.total
                    or (f.allocation > 0
                        and f.remaining <= f.allocation * 1e-9)]
        if finished:
            self._drop(finished)
        seed: List[int] = []
        for flow in finished:
            seed.extend(flow.edge_ids)
            if trace is not None:
                trace.complete("network", "flow", ts=flow.started_at,
                               dur=self.sim.now - flow.started_at,
                               src=flow.src, dst=flow.dst, bytes=flow.total)
        self._perturb(seed)
        for flow in finished:
            flow.event.succeed(self.sim.now - flow.started_at)

    def _drop(self, finished: List[Flow]) -> None:
        """Take ``finished`` out of ``_flows`` (one order-preserving
        rebuild, not a removal per flow) and out of their bundles."""
        done = {flow.seq for flow in finished}
        self._flows = [f for f in self._flows if f.seq not in done]
        for flow in finished:
            edge_ids = flow.edge_ids
            bundle = self._bundles[edge_ids]
            members = bundle.flows
            oldest = members[0]
            members.remove(flow)  # finishers are mostly the oldest
            if not members:
                del self._bundles[edge_ids]
                for eid in edge_ids:
                    self._edge_bundles[eid].remove(bundle)
            elif members[0] is not oldest:
                # a younger member now dates the bundle: move it back
                for eid in edge_ids:
                    bundles = self._edge_bundles[eid]
                    bundles.remove(bundle)
                    bisect.insort(bundles, bundle, key=_oldest)

    def edge_loads(self) -> List[Tuple[float, float]]:
        """``(allocated, capacity)`` in bytes/s per interned directed
        edge, by edge id; loads are summed over flows in start order.

        Fills still pending in this instant run first (the close then
        has none left to run); the agenda is not touched.
        """
        self._refill()
        loads = [0.0] * len(self._edge_cap)
        for flow in self._flows:
            for eid in flow.edge_ids:
                loads[eid] += flow.allocation
        return list(zip(loads, self._edge_cap))

    @property
    def active_flows(self) -> int:
        return len(self._flows)
