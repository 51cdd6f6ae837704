"""Scheduling heuristics over the performance matrix (§3.1).

"This matrix is used by the scheduling heuristics to obtain a mapping
of components onto resources.  Such a heuristic approach is necessary
since the mapping problem is NP-complete.  We apply three heuristics to
obtain three mappings and then select the schedule with the minimum
makespan.  The heuristics that we apply are the min-min, the max-min,
and the sufferage heuristics."

All heuristics share one machinery: maintain per-resource availability
and per-task data-readiness, evaluate estimated completion times, and
differ only in which ready task they commit next.  Baselines (random,
FIFO round-robin a la DAGMan without performance models, and HEFT as a
modern reference point) ride on the same machinery so comparisons are
apples-to-apples.

The machinery is the incremental, array-backed :class:`_FastBuilder`
(DESIGN.md §3.1); its pure-Python oracle is :mod:`repro.oracles.scheduler`.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nws.service import NetworkWeatherService
from ..sim.stats import KernelStats
from .ranking import RankMatrix
from .workflow import Task, Workflow

__all__ = [
    "Placement",
    "Schedule",
    "ScheduleError",
    "min_min",
    "max_min",
    "sufferage",
    "random_schedule",
    "fifo_schedule",
    "heft_schedule",
    "HEURISTICS",
]


class ScheduleError(RuntimeError):
    """Raised when no feasible schedule exists."""


@dataclass(frozen=True)
class Placement:
    """One task's assignment with its estimated timeline."""

    task: Task
    resource: str
    est_start: float
    est_finish: float


@dataclass
class Schedule:
    """A complete mapping of workflow tasks onto resources."""

    heuristic: str
    placements: Dict[str, Placement] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Estimated overall job completion time — the §3.1 objective."""
        if not self.placements:
            return 0.0
        return max(p.est_finish for p in self.placements.values())

    def resource_of(self, task_name: str) -> str:
        return self.placements[task_name].resource

    def tasks_on(self, resource: str) -> List[Placement]:
        return sorted((p for p in self.placements.values()
                       if p.resource == resource),
                      key=lambda p: p.est_start)

    def component_resources(self, component_name: str) -> List[str]:
        """Resources of one component's tasks, ordered by task index.

        Ordering must be numeric, not lexicographic: sorting the
        placement *names* puts ``c[10]`` before ``c[2]``, which silently
        misassigns per-task resources for any component with ten or
        more tasks.
        """
        placed = [p for p in self.placements.values()
                  if p.task.component.name == component_name]
        placed.sort(key=lambda p: p.task.index)
        return [p.resource for p in placed]


def _scheduler_env(nws: NetworkWeatherService
                   ) -> Tuple[KernelStats, Optional[object]]:
    """(stats, trace) a builder bills its work to.

    Counters ride on the simulator every heuristic already reaches
    through the NWS; the tracer is kept only when the scheduler category
    is enabled so the commit hot path stays a plain None test.
    """
    sim = getattr(nws, "sim", None)
    stats = getattr(sim, "stats", None)
    if stats is None:
        stats = KernelStats()
    trace = getattr(sim, "trace", None)
    if trace is not None and "scheduler" not in trace.active:
        trace = None
    return stats, trace


def _heft_upward_ranks(workflow: Workflow,
                       matrix: RankMatrix) -> Dict[str, float]:
    """Upward rank per component from mean finite execution costs.

    Shared with the reference oracle so HEFT's task ordering is identical.
    """
    mean_cost = {}
    for i, task in enumerate(matrix.tasks):
        finite = matrix.ecosts[i][np.isfinite(matrix.ecosts[i])]
        if len(finite) == 0:
            raise ScheduleError(f"task {task.name} has no eligible resource")
        mean_cost[task.name] = float(np.mean(finite))
    upward: Dict[str, float] = {}
    for component in reversed(workflow.components()):
        succ = workflow.successors(component.name)
        succ_rank = max((upward[s.name] for s in succ), default=0.0)
        upward[component.name] = (
            mean_cost[workflow.task_names(component.name)[0]] + succ_rank)
    return upward


_SCORED = ("min-min", "max-min", "sufferage", "heft")


class _FastBuilder:
    """Incremental array-backed engine behind every ``HEURISTICS`` entry.

    Three invariants carry the speedup (DESIGN §3.1):

    * A task's data-ready vector is fixed the moment the task becomes
      ready: readiness requires every predecessor component to be fully
      committed, so predecessor finish times and locations are final.
      The vector is computed once, as a numpy row over all resources.
    * NWS forecasts are frozen while a schedule is being built (no
      simulated time passes), so per-(src, dst) latency/bandwidth pairs
      are memoised and any transfer volume prices as ``lat + n/bw``.
    * A commit changes exactly one resource's availability, so only
      completion times in that column move — and only rows whose best
      or second-best completion lived in that column need re-ranking.
    """

    def __init__(self, workflow: Workflow, matrix: RankMatrix,
                 nws: NetworkWeatherService) -> None:
        self.workflow = workflow
        self.matrix = matrix
        self.nws = nws
        self.stats, self.trace = _scheduler_env(nws)
        self.schedule = Schedule(heuristic="")

        tasks = matrix.tasks
        self.tasks = tasks
        self.n_tasks = len(tasks)
        self.n_resources = len(matrix.resources)
        self.resource_names = [r.name for r in matrix.resources]
        self.names = [workflow.task_names(t.component.name)[t.index]
                      for t in tasks]

        comps = workflow.components()
        self._comps = comps
        comp_index = {c.name: k for k, c in enumerate(comps)}
        self.comp_of = np.empty(self.n_tasks, dtype=np.intp)
        self.comp_tasks: List[List[int]] = [[] for _ in comps]
        for i, task in enumerate(tasks):
            k = comp_index[task.component.name]
            self.comp_of[i] = k
            self.comp_tasks[k].append(i)
        self._pred_comps = [
            [comp_index[p.name] for p in workflow.predecessors(c.name)]
            for c in comps]
        self._succ_comps = [
            [comp_index[s.name] for s in workflow.successors(c.name)]
            for c in comps]
        self._pending = [len(preds) for preds in self._pred_comps]
        self._done = [0] * len(comps)

        self.ecosts = matrix.ecosts
        # Entry components pay their static dcost column (fixed data
        # sources recorded by the rank matrix); downstream components
        # get data movement dynamically through the data-ready vector,
        # so their column must not double count.
        self.extra = np.zeros_like(matrix.dcosts)
        for k in range(len(comps)):
            if not self._pred_comps[k]:
                for i in self.comp_tasks[k]:
                    self.extra[i] = matrix.dcosts[i]

        self.free = np.zeros(self.n_resources)
        self.finish = np.zeros(self.n_tasks)
        self.loc = np.full(self.n_tasks, -1, dtype=np.intp)
        self.dr = np.zeros((self.n_tasks, self.n_resources))
        self.ct = np.full((self.n_tasks, self.n_resources), np.inf)
        self.best_j = np.full(self.n_tasks, -1, dtype=np.intp)
        self.best_ct = np.full(self.n_tasks, np.inf)
        self.second_j = np.full(self.n_tasks, -1, dtype=np.intp)
        self.second_ct = np.full(self.n_tasks, np.inf)
        self.ready: List[int] = []
        self._committed = 0
        self._needs_ct = False
        self._transfer_memo: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # -- frozen-forecast memo ------------------------------------------------
    def _transfer_rows(self, src: int) -> Tuple[np.ndarray, np.ndarray]:
        """(latency, bandwidth) vectors from resource ``src`` to all."""
        rows = self._transfer_memo.get(src)
        if rows is None:
            src_name = self.resource_names[src]
            lat = np.empty(self.n_resources)
            bw = np.empty(self.n_resources)
            for j, dst_name in enumerate(self.resource_names):
                if j == src:
                    lat[j], bw[j] = 0.0, math.inf
                else:
                    lat[j], bw[j] = self.nws.transfer_params(src_name,
                                                             dst_name)
            rows = (lat, bw)
            self._transfer_memo[src] = rows
        else:
            self.stats.sched_memo_hits += 1
        return rows

    # -- readiness -----------------------------------------------------------
    def _data_ready_row(self, k: int) -> np.ndarray:
        """When component ``k``'s inputs can be present, per resource.

        All tasks of a component share one data-ready vector: the
        formula only involves the component's predecessors and volume.
        """
        preds = self._pred_comps[k]
        ready = np.zeros(self.n_resources)
        if not preds:
            return ready
        volume = self._comps[k].input_bytes_per_task
        for p in preds:
            pred = self._comps[p]
            share = volume / pred.n_tasks if volume > 0 else 0.0
            idxs = self.comp_tasks[p]
            if share <= 0:
                latest = max(self.finish[i] for i in idxs)
                np.maximum(ready, latest, out=ready)
                continue
            # Group predecessor tasks by location: tasks sharing a
            # source see one transfer-cost row, and max(finish) + cost
            # equals the per-task maximum exactly (addition is
            # monotone, so max commutes with it).
            latest_from: Dict[int, float] = {}
            for i in idxs:
                src = int(self.loc[i])
                done = self.finish[i]
                prev = latest_from.get(src)
                if prev is None or done > prev:
                    latest_from[src] = done
            for src, latest in latest_from.items():
                lat, bw = self._transfer_rows(src)
                cost = lat + share / bw
                cost[src] = 0.0  # no transfer when data is already local
                np.maximum(ready, latest + cost, out=ready)
        return ready

    def _activate(self, k: int) -> None:
        """Component ``k`` became ready: admit its tasks to the queue."""
        row = self._data_ready_row(k)
        idxs = self.comp_tasks[k]
        for i in idxs:
            self.dr[i] = row
            insort(self.ready, i)
        if self._needs_ct:
            for i in idxs:
                self.ct[i] = (np.maximum(self.free, row)
                              + self.ecosts[i] + self.extra[i])
                self._rescore(i)
            self.stats.sched_evaluations += len(idxs) * self.n_resources

    # -- scoring -------------------------------------------------------------
    def _rescore(self, i: int) -> None:
        """Recompute best/second-best completion for task ``i``'s row."""
        row = self.ct[i]
        j = int(np.argmin(row))
        best = row[j]
        if not np.isfinite(best):
            raise ScheduleError(
                f"task {self.names[i]} has no eligible resource")
        self.best_j[i] = j
        self.best_ct[i] = best
        if self.n_resources == 1:
            self.second_j[i] = -1
            self.second_ct[i] = np.inf
            return
        saved = row[j]
        row[j] = np.inf
        j2 = int(np.argmin(row))
        self.second_j[i] = j2
        self.second_ct[i] = row[j2]
        row[j] = saved

    def _select_scored(self, name: str,
                       upward: Optional[np.ndarray]) -> int:
        """Pick the next task for the completion-time-driven rules."""
        ridx = np.fromiter(self.ready, dtype=np.intp, count=len(self.ready))
        if name == "min-min":
            vals = self.best_ct[ridx]
            tied = ridx[vals == vals.min()]
        elif name == "max-min":
            vals = self.best_ct[ridx]
            tied = ridx[vals == vals.max()]
        elif name == "sufferage":
            vals = self.second_ct[ridx] - self.best_ct[ridx]
            tied = ridx[vals == vals.max()]
        else:  # heft: upward rank, ties toward the largest task name
            vals = upward[self.comp_of[ridx]]
            tied = ridx[vals == vals.max()]
            if len(tied) > 1:
                return max((self.names[i], int(i)) for i in tied)[1]
            return int(tied[0])
        if len(tied) > 1:  # ties break toward the smallest task name
            return min((self.names[i], int(i)) for i in tied)[1]
        return int(tied[0])

    def _eligible(self, i: int) -> List[int]:
        eligible = self.matrix.eligible_resources(i)
        if not eligible:
            raise ScheduleError(
                f"task {self.names[i]} has no eligible resource")
        return eligible

    # -- committing ----------------------------------------------------------
    def _commit(self, i: int, j: int) -> None:
        record = self.matrix.resources[j]
        start = float(max(self.free[j], self.dr[i, j]))
        finish = float(start + self.ecosts[i, j] + self.extra[i, j])
        name = self.names[i]
        self.schedule.placements[name] = Placement(
            task=self.tasks[i], resource=record.name,
            est_start=start, est_finish=finish)
        if self.trace is not None:
            self.trace.complete(
                "scheduler", f"task:{name}", ts=start,
                dur=finish - start, host=record.name,
                heuristic=self.schedule.heuristic,
                rank=self.matrix.rank(i, j))
        self.free[j] = finish
        self.finish[i] = finish
        self.loc[i] = j
        self.ready.remove(i)
        self._committed += 1
        # Only column j moved, and availability only grows: rows whose
        # best/second lived elsewhere keep their ranking (their other
        # columns are untouched and j can only have become worse).
        if self._needs_ct and self.ready:
            ridx = np.fromiter(self.ready, dtype=np.intp,
                               count=len(self.ready))
            self.ct[ridx, j] = (np.maximum(self.free[j], self.dr[ridx, j])
                                + self.ecosts[ridx, j] + self.extra[ridx, j])
            self.stats.sched_evaluations += len(ridx)
            stale = ridx[(self.best_j[ridx] == j)
                         | (self.second_j[ridx] == j)]
            for r in stale:
                self._rescore(int(r))
        # Event-driven readiness: a fully committed component unlocks
        # its successors, whose data-ready vectors are now final.
        k = int(self.comp_of[i])
        self._done[k] += 1
        if self._done[k] == self._comps[k].n_tasks:
            for s in self._succ_comps[k]:
                self._pending[s] -= 1
                if self._pending[s] == 0:
                    self._activate(s)

    # -- driver --------------------------------------------------------------
    def run(self, name: str,
            rng: Optional[np.random.Generator] = None) -> Schedule:
        self.schedule.heuristic = name
        self._needs_ct = name in _SCORED
        upward = None
        if name == "heft":
            by_comp = _heft_upward_ranks(self.workflow, self.matrix)
            upward = np.array([by_comp[c.name] for c in self._comps])
        for k in range(len(self._comps)):
            if self._pending[k] == 0:
                self._activate(k)
        total = self.n_tasks
        while self._committed < total:
            self.stats.sched_rounds += 1
            if not self.ready:
                raise ScheduleError("no ready tasks but schedule incomplete "
                                    "(cycle or ineligible task)")
            if name == "random":
                i = self.ready[int(rng.integers(len(self.ready)))]
                j = int(rng.choice(self._eligible(i)))
            elif name == "fifo":
                i = self.ready[0]
                free = self.free
                j = min(self._eligible(i), key=lambda jj: (free[jj], jj))
            else:
                i = self._select_scored(name, upward)
                j = int(self.best_j[i])
            self._commit(i, j)
        if self.trace is not None:
            self.trace.instant("scheduler", f"heuristic:{name}",
                               makespan=self.schedule.makespan,
                               tasks=total)
        return self.schedule


# -- the entry points (the registry) -----------------------------------------
def min_min(workflow: Workflow, matrix: RankMatrix,
            nws: NetworkWeatherService) -> Schedule:
    """Commit the ready task with the *smallest* best completion time."""
    return _FastBuilder(workflow, matrix, nws).run("min-min")


def max_min(workflow: Workflow, matrix: RankMatrix,
            nws: NetworkWeatherService) -> Schedule:
    """Commit the ready task with the *largest* best completion time —
    big tasks first, so they don't straggle at the end.

    Ties break toward the lexicographically smallest task name, the
    same direction as min-min, so schedules are stable under renaming.
    """
    return _FastBuilder(workflow, matrix, nws).run("max-min")


def sufferage(workflow: Workflow, matrix: RankMatrix,
              nws: NetworkWeatherService) -> Schedule:
    """Commit the task that would suffer most if denied its best
    resource: largest (second-best - best) completion gap.

    Ties break toward the lexicographically smallest task name (see
    max_min).
    """
    return _FastBuilder(workflow, matrix, nws).run("sufferage")


def random_schedule(workflow: Workflow, matrix: RankMatrix,
                    nws: NetworkWeatherService,
                    rng: Optional[np.random.Generator] = None) -> Schedule:
    """Baseline: each ready task goes to a uniformly random eligible
    resource (what scheduling without models degenerates to).

    ``rng`` defaults to a fixed seed so the registry entry (called with
    the common 3-argument signature) stays deterministic across runs.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _FastBuilder(workflow, matrix, nws).run("random", rng=rng)


def fifo_schedule(workflow: Workflow, matrix: RankMatrix,
                  nws: NetworkWeatherService) -> Schedule:
    """Baseline: DAGMan-style matchmaking without performance models —
    ready tasks in declaration order onto the earliest-free eligible
    resource (resource speed is invisible to the policy)."""
    return _FastBuilder(workflow, matrix, nws).run("fifo")


def heft_schedule(workflow: Workflow, matrix: RankMatrix,
                  nws: NetworkWeatherService) -> Schedule:
    """HEFT (extension): order tasks by upward rank computed with mean
    execution costs, then assign each to its earliest-finish resource."""
    return _FastBuilder(workflow, matrix, nws).run("heft")


#: name -> heuristic callable, for sweeps and benchmarks.  Every entry
#: (baselines included) accepts the (workflow, matrix, nws) signature.
HEURISTICS = {
    "min-min": min_min,
    "max-min": max_min,
    "sufferage": sufferage,
    "random": random_schedule,
    "fifo": fifo_schedule,
    "heft": heft_schedule,
}
