"""Reference oracle for the list scheduler (§3.1, DESIGN.md §4.2).

Each :data:`REFERENCE_HEURISTICS` entry must match its namesake in
``HEURISTICS`` placement for placement (exact floats, same tie-breaks,
same RNG draws) and emit byte-identical ``scheduler`` trace spans.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nws.service import NetworkWeatherService
from ..scheduler.heuristics import (Placement, Schedule, ScheduleError,
                                   _heft_upward_ranks, _scheduler_env)
from ..scheduler.ranking import RankMatrix
from ..scheduler.workflow import Task, Workflow

__all__ = ["REFERENCE_HEURISTICS", "reference_min_min", "reference_max_min",
           "reference_sufferage", "reference_random_schedule",
           "reference_fifo_schedule", "reference_heft_schedule"]


class _ReferenceBuilder:
    """The pre-overhaul list scheduler: from-scratch ready sets and
    per-cell completion times with per-call NWS forecasts.  O(T²·R) —
    run it on small inputs only."""

    def __init__(self, workflow: Workflow, matrix: RankMatrix,
                 nws: NetworkWeatherService) -> None:
        self.workflow = workflow
        self.matrix = matrix
        self.nws = nws
        self.stats, self.trace = _scheduler_env(nws)
        self.task_index = {t.name: i for i, t in enumerate(matrix.tasks)}
        self.resource_free = {r.name: 0.0 for r in matrix.resources}
        self.finish: Dict[str, float] = {}
        self.location: Dict[str, str] = {}
        self.schedule = Schedule(heuristic="")
        self._component_done: Dict[str, int] = {
            c.name: 0 for c in workflow.components()}

    # -- readiness ----------------------------------------------------------
    def ready_tasks(self) -> List[Task]:
        """Tasks whose predecessor components are fully scheduled."""
        out = []
        for task in self.matrix.tasks:
            if task.name in self.schedule.placements:
                continue
            preds = self.workflow.predecessors(task.component.name)
            if all(self._component_done[p.name] == p.n_tasks for p in preds):
                out.append(task)
        return out

    def data_ready_time(self, task: Task, resource: str) -> float:
        """When the task's inputs can be present on ``resource``."""
        preds = self.workflow.predecessors(task.component.name)
        if not preds:
            return 0.0
        ready = 0.0
        volume = task.component.input_bytes_per_task
        for pred in preds:
            share = volume / pred.n_tasks if volume > 0 else 0.0
            for pname in self.workflow.task_names(pred.name):
                arrive = self.finish[pname]
                src = self.location[pname]
                if share > 0 and src != resource:
                    arrive += self.nws.transfer_forecast(src, resource, share)
                ready = max(ready, arrive)
        return ready

    def _entry_dcost(self, task: Task, resource_index: int) -> float:
        """Static input-staging cost for components with no predecessors.

        Downstream components get their data-movement cost dynamically
        from predecessor placements (data_ready_time); entry components
        pull from the fixed data sources the rank matrix recorded, so
        their dcost column applies here and only here (no double count).
        """
        if self.workflow.predecessors(task.component.name):
            return 0.0
        i = self.task_index[task.name]
        return float(self.matrix.dcosts[i, resource_index])

    def completion_time(self, task: Task, resource_index: int
                        ) -> float:
        """Estimated finish if ``task`` went on that resource next."""
        self.stats.sched_evaluations += 1
        i = self.task_index[task.name]
        exec_seconds = self.matrix.ecosts[i, resource_index]
        if not math.isfinite(exec_seconds):
            return math.inf
        record = self.matrix.resources[resource_index]
        start = max(self.resource_free[record.name],
                    self.data_ready_time(task, record.name))
        return start + exec_seconds + self._entry_dcost(task, resource_index)

    def best_resource(self, task: Task) -> Tuple[int, float, float]:
        """(best index, best completion, second-best completion)."""
        best_j, best_ct, second_ct = -1, math.inf, math.inf
        for j in range(len(self.matrix.resources)):
            ct = self.completion_time(task, j)
            if ct < best_ct:
                best_j, best_ct, second_ct = j, ct, best_ct
            elif ct < second_ct:
                second_ct = ct
        return best_j, best_ct, second_ct

    def commit(self, task: Task, resource_index: int) -> None:
        record = self.matrix.resources[resource_index]
        i = self.task_index[task.name]
        exec_seconds = self.matrix.ecosts[i, resource_index]
        start = float(max(self.resource_free[record.name],
                          self.data_ready_time(task, record.name)))
        finish = float(start + exec_seconds
                       + self._entry_dcost(task, resource_index))
        self.schedule.placements[task.name] = Placement(
            task=task, resource=record.name,
            est_start=start, est_finish=finish)
        self.resource_free[record.name] = finish
        self.finish[task.name] = finish
        self.location[task.name] = record.name
        self._component_done[task.component.name] += 1
        if self.trace is not None:
            self.trace.complete(
                "scheduler", f"task:{task.name}", ts=start,
                dur=finish - start, host=record.name,
                heuristic=self.schedule.heuristic,
                rank=self.matrix.rank(i, resource_index))

    def eligible(self, task: Task) -> List[int]:
        eligible = self.matrix.eligible_resources(self.task_index[task.name])
        if not eligible:
            raise ScheduleError(f"task {task.name} has no eligible resource")
        return eligible

    def scored(self, select: Callable[[List[Tuple[Task, int, float, float]]],
                                      Tuple[Task, int]]):
        """A :meth:`run` chooser from a completion-time rule: ``select``
        receives ``[(task, best_j, best_ct, second_ct), ...]`` for the
        ready set and returns the chosen (task, j)."""
        def choose(ready: List[Task]) -> Tuple[Task, int]:
            candidates = []
            for task in ready:
                j, ct, second = self.best_resource(task)
                if j < 0 or math.isinf(ct):
                    raise ScheduleError(
                        f"task {task.name} has no eligible resource")
                candidates.append((task, j, ct, second))
            return select(candidates)
        return choose

    def run(self, name: str,
            choose: Callable[[List[Task]], Tuple[Task, int]]) -> Schedule:
        """Drive list scheduling: ``choose`` maps the ready set to the
        next (task, resource index)."""
        self.schedule.heuristic = name
        total = len(self.matrix.tasks)
        while len(self.schedule.placements) < total:
            self.stats.sched_rounds += 1
            ready = self.ready_tasks()
            if not ready:
                raise ScheduleError("no ready tasks but schedule incomplete "
                                    "(cycle or ineligible task)")
            self.commit(*choose(ready))
        if self.trace is not None:
            self.trace.instant("scheduler", f"heuristic:{name}",
                               makespan=self.schedule.makespan,
                               tasks=total)
        return self.schedule


# -- reference selection rules ----------------------------------------------
def _ref_select_min_min(candidates):
    task, j, _ct, _s = min(candidates, key=lambda c: (c[2], c[0].name))
    return task, j


def _ref_select_max_min(candidates):
    task, j, _ct, _s = min(candidates, key=lambda c: (-c[2], c[0].name))
    return task, j


def _ref_select_sufferage(candidates):
    def key(c):
        _task, _j, ct, second = c
        gap = (second - ct) if math.isfinite(second) else math.inf
        return (-gap, c[0].name)
    task, j, _ct, _s = min(candidates, key=key)
    return task, j


# -- the reference oracle entry points ---------------------------------------
def reference_min_min(workflow: Workflow, matrix: RankMatrix,
                      nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`min_min`."""
    builder = _ReferenceBuilder(workflow, matrix, nws)
    return builder.run("min-min", builder.scored(_ref_select_min_min))


def reference_max_min(workflow: Workflow, matrix: RankMatrix,
                      nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`max_min`."""
    builder = _ReferenceBuilder(workflow, matrix, nws)
    return builder.run("max-min", builder.scored(_ref_select_max_min))


def reference_sufferage(workflow: Workflow, matrix: RankMatrix,
                        nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`sufferage`."""
    builder = _ReferenceBuilder(workflow, matrix, nws)
    return builder.run("sufferage", builder.scored(_ref_select_sufferage))


def reference_random_schedule(workflow: Workflow, matrix: RankMatrix,
                              nws: NetworkWeatherService,
                              rng: Optional[np.random.Generator] = None
                              ) -> Schedule:
    """Oracle counterpart of :func:`random_schedule` (same rng draws)."""
    if rng is None:
        rng = np.random.default_rng(0)
    builder = _ReferenceBuilder(workflow, matrix, nws)

    def choose(ready):
        task = ready[int(rng.integers(len(ready)))]
        return task, int(rng.choice(builder.eligible(task)))
    return builder.run("random", choose)


def reference_fifo_schedule(workflow: Workflow, matrix: RankMatrix,
                            nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`fifo_schedule`."""
    builder = _ReferenceBuilder(workflow, matrix, nws)
    free = builder.resource_free

    def choose(ready):
        return ready[0], min(builder.eligible(ready[0]), key=lambda jj: (
            free[matrix.resources[jj].name], jj))
    return builder.run("fifo", choose)


def reference_heft_schedule(workflow: Workflow, matrix: RankMatrix,
                            nws: NetworkWeatherService) -> Schedule:
    """Oracle counterpart of :func:`heft_schedule`."""
    upward = _heft_upward_ranks(workflow, matrix)

    def select(candidates):
        task, j, _ct, _s = max(
            candidates,
            key=lambda c: (upward[c[0].component.name], c[0].name))
        return task, j

    builder = _ReferenceBuilder(workflow, matrix, nws)
    return builder.run("heft", builder.scored(select))


#: the pure-Python oracle under the same names — the semantic baseline
#: the fast engine is property- and benchmark-tested against.
REFERENCE_HEURISTICS = {
    "min-min": reference_min_min,
    "max-min": reference_max_min,
    "sufferage": reference_sufferage,
    "random": reference_random_schedule,
    "fifo": reference_fifo_schedule,
    "heft": reference_heft_schedule,
}
