"""Heuristic schedulers and ACO guiding heuristics.

* :class:`~repro.heuristics.base.GuidingHeuristic` — the interface shared by
  the greedy list scheduler and the ACO selection rule (Section IV-A: the
  search is guided by common heuristics such as Critical-Path and
  Last-Use-Count).
* :mod:`~repro.heuristics.list_scheduler` — latency-aware greedy list
  scheduling and order-only (pass-1 style) scheduling.
* :class:`~repro.heuristics.amd_max_occupancy.AMDMaxOccupancyScheduler` — the
  production-baseline stand-in (GCNMaxOccupancyScheduler's two-mode greedy
  policy).
"""

from .base import GuidingHeuristic, SchedulingState
from .critical_path import CriticalPathHeuristic
from .luc import LastUseCountHeuristic
from .list_scheduler import list_schedule, order_schedule, pick_by_priority
from .amd_max_occupancy import AMDMaxOccupancyScheduler

__all__ = [
    "GuidingHeuristic",
    "SchedulingState",
    "CriticalPathHeuristic",
    "LastUseCountHeuristic",
    "list_schedule",
    "order_schedule",
    "pick_by_priority",
    "AMDMaxOccupancyScheduler",
]
