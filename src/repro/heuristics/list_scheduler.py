"""Greedy list scheduling.

Two entry points, matching the two passes of the RP-aware problem:

* :func:`order_schedule` — latency-blind: repeatedly pick the best-scoring
  instruction from the dependence-ready set and issue instructions back to
  back. This is how pass-1 (RP) schedules are built.
* :func:`list_schedule` — latency-aware, cycle by cycle: the ready list
  contains instructions whose predecessors are scheduled *and* whose
  operands have arrived; when the ready list is empty but instructions are
  pending, the machine stalls. This is the pass-2 (ILP) construction and
  also how heuristic baselines produce final schedules.

Both take one ``pick(ready, state)`` hook that chooses the instruction to
issue next. By default it is :func:`pick_by_priority` over a guiding
heuristic's score: the best score wins and ties break toward the lower
program-order index, matching the behaviour of LLVM's source-order
tie-break. A policy whose choice is cheaper to make over the whole ready
list (the AMD baseline's static ILP keys) passes its own.

Each returns its schedule with the tracker's peak pressure attached
(:attr:`Schedule.tracked_peak`) when the tracker issued exactly
:attr:`Schedule.order`, so evaluating the schedule does not replay it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..ddg.graph import DDG
from ..errors import ScheduleError
from ..machine.model import MachineModel
from ..rp.tracker import PressureTracker
from ..schedule.schedule import Schedule
from .base import GuidingHeuristic, SchedulingState

#: Signature of a priority function: (index, state) -> score, higher wins.
PriorityFn = Callable[[int, SchedulingState], float]
#: Signature of a pick hook: (ready list, state) -> the instruction to issue.
PickFn = Callable[[List[int], SchedulingState], int]


def pick_by_priority(priority: PriorityFn) -> PickFn:
    """The highest ``(priority, -index)`` of the ready list: the best score,
    ties toward the lower index. Keys are unique, so the choice does not
    depend on the ready list's order."""

    def pick(ready: List[int], state: SchedulingState) -> int:
        return max(ready, key=lambda i: (priority(i, state), -i))

    return pick


def _resolve_pick(
    ddg: DDG, heuristic: Optional[GuidingHeuristic], pick: Optional[PickFn], caller: str
) -> PickFn:
    if pick is not None:
        return pick
    if heuristic is None:
        raise ScheduleError("%s needs a heuristic or a pick" % caller)
    return pick_by_priority(heuristic.prepare(ddg).score)


def order_schedule(
    ddg: DDG,
    heuristic: Optional[GuidingHeuristic] = None,
    pick: Optional[PickFn] = None,
) -> Schedule:
    """Latency-blind greedy scheduling (the shape of a pass-1 schedule)."""
    pick = _resolve_pick(ddg, heuristic, pick, "order_schedule")
    n = ddg.num_instructions
    region = ddg.region
    tracker = PressureTracker(region)
    state = SchedulingState(ddg, tracker)
    unscheduled_preds = list(ddg.num_predecessors)
    ready: List[int] = list(ddg.roots)
    order: List[int] = []
    while ready:
        best = pick(ready, state)
        ready.remove(best)
        order.append(best)
        tracker.schedule(region[best])
        for succ, _lat in ddg.successors[best]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)
    if len(order) != n:
        raise ScheduleError("DDG is not schedulable (cycle?)")
    return Schedule.from_order(region, order, tracked_peak=tracker.peak_pressure())


def schedule_in_order(ddg: DDG, order) -> Schedule:
    """Stretch a fixed instruction order into a latency-legal schedule.

    Issues the instructions of ``order`` one per cycle in exactly that
    order, inserting the *necessary* stalls latency demands. This is how the
    best pass-1 (RP) order becomes the initial schedule of pass 2
    (Section IV-C: "Stalls are added to the best-RP schedule found in the
    first pass to satisfy latency constraints").
    """
    cycles = [0] * ddg.num_instructions
    current = -1
    for index in order:
        earliest = current + 1
        for pred, latency in ddg.predecessors[index]:
            earliest = max(earliest, cycles[pred] + latency)
        cycles[index] = earliest
        current = earliest
    if sorted(order) != list(range(ddg.num_instructions)):
        raise ScheduleError("order must be a permutation of the instructions")
    return Schedule(ddg.region, cycles)


def list_schedule(
    ddg: DDG,
    machine: MachineModel,
    heuristic: Optional[GuidingHeuristic] = None,
    pick: Optional[PickFn] = None,
) -> Schedule:
    """Latency-aware greedy list scheduling (cycle-accurate, with stalls)."""
    pick = _resolve_pick(ddg, heuristic, pick, "list_schedule")
    n = ddg.num_instructions
    region = ddg.region
    tracker = PressureTracker(region)
    state = SchedulingState(ddg, tracker)
    unscheduled_preds = list(ddg.num_predecessors)
    cycles = [0] * n
    #: earliest cycle each instruction may issue, given scheduled predecessors
    earliest = [0] * n
    ready: List[int] = list(ddg.roots)
    #: (release_cycle, index) for dependence-satisfied but not-yet-ready insts
    pending: List[Tuple[int, int]] = []
    issued: List[int] = []
    cycle = 0
    while len(issued) < n:
        # Move newly released instructions into the ready list.
        still_pending = []
        for release, index in pending:
            if release <= cycle:
                ready.append(index)
            else:
                still_pending.append((release, index))
        pending = still_pending
        if not ready:
            if not pending:
                raise ScheduleError("DDG is not schedulable (cycle?)")
            cycle = min(release for release, _ in pending)
            continue
        state.cycle = cycle
        width = machine.issue_width
        while ready and width:
            best = pick(ready, state)
            ready.remove(best)
            cycles[best] = cycle
            tracker.schedule(region[best])
            issued.append(best)
            width -= 1
            for succ, latency in ddg.successors[best]:
                release = cycle + latency
                if release > earliest[succ]:
                    earliest[succ] = release
                unscheduled_preds[succ] -= 1
                if unscheduled_preds[succ] == 0:
                    # Latencies are >= 1, so a successor can never issue in
                    # the current cycle; park it until its operands arrive.
                    pending.append((earliest[succ], succ))
        cycle += 1
    # Schedule.order sorts a cycle's instructions by index. A multi-issue
    # cycle may have picked them in another order, and pressure is sampled
    # between instructions, so the tracker's peak is then not the order's.
    tracked = issued == sorted(range(n), key=cycles.__getitem__)
    return Schedule(region, cycles, tracked_peak=tracker.peak_pressure() if tracked else None)
