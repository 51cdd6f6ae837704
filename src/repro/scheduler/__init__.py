"""The GrADS workflow scheduler (paper §3)."""

from .analysis import (
    ScheduleStats,
    analyze,
    gantt,
    load_balance,
    makespan_lower_bound,
    utilization,
)
from .executor import ExecutionTrace, TaskTrace, WorkflowExecutor
from .heuristics import (
    HEURISTICS,
    Placement,
    Schedule,
    ScheduleError,
    fifo_schedule,
    heft_schedule,
    max_min,
    min_min,
    random_schedule,
    sufferage,
)
from .ranking import RankMatrix, build_rank_matrix, dcost, ecost
from .scheduler import GradsWorkflowScheduler, SchedulingResult
from .workflow import Task, Workflow, WorkflowComponent, WorkflowError

__all__ = [
    "ExecutionTrace",
    "GradsWorkflowScheduler",
    "HEURISTICS",
    "Placement",
    "RankMatrix",
    "Schedule",
    "ScheduleStats",
    "ScheduleError",
    "SchedulingResult",
    "Task",
    "TaskTrace",
    "Workflow",
    "WorkflowComponent",
    "WorkflowError",
    "WorkflowExecutor",
    "analyze",
    "build_rank_matrix",
    "dcost",
    "ecost",
    "fifo_schedule",
    "gantt",
    "heft_schedule",
    "load_balance",
    "makespan_lower_bound",
    "max_min",
    "min_min",
    "random_schedule",
    "sufferage",
    "utilization",
]
