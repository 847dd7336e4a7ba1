"""Single-ant schedule construction (Section IV-A).

Two constructors, one per pass:

* :func:`construct_order` — pass 1: latencies ignored, the ant repeatedly
  picks from the dependence-ready list; the product is an instruction order
  and its register-pressure cost.
* :func:`construct_cycles` — pass 2: cycle-accurate construction with
  necessary and optional stalls; the ant is **terminated** the moment its
  peak pressure exceeds the pass-1 target (the paper's constraint-violation
  rule), and the product is a full cycle assignment.

Both count the abstract operations (ready-list scans, successor traversals,
construction steps) that drive the CPU and GPU cost models, and both accept
an ``exploit_decider`` so the parallel scheduler can hoist the
explore/exploit draw to wavefront level.

A step does each piece of work once: one
:meth:`~repro.rp.tracker.PressureTracker.excesses_if_scheduled` call
previews the whole ready list, one
:meth:`~repro.heuristics.base.PreparedHeuristic.eta_weights` call gives
the candidates' ``eta**beta`` (a per-pass table for CP), the chosen
instruction issues by index, and pass 2 rescans its pending releases only
once the earliest is due. Each is exact, so the draws and the counts are
those of a candidate-by-candidate loop (DESIGN.md §10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..config import ACOParams
from ..ddg.graph import DDG
from ..errors import ScheduleError
from ..heuristics.base import PreparedHeuristic, SchedulingState
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..rp.cost import rp_cost
from ..rp.tracker import PressureTracker, RegisterTable
from .pheromone import PheromoneTable
from .selection import select_index
from .stalls import OptionalStallHeuristic

#: Decides explore (False) vs. exploit (True) for one construction step.
ExploitDecider = Callable[[int], bool]

#: ``next_release`` while nothing is pending: later than any cycle.
_NEVER = float("inf")


@dataclass
class ConstructionStats:
    """Operation counts of one ant's construction (feeds the cost models)."""

    steps: int = 0
    ready_scans: int = 0
    successor_ops: int = 0
    stalls: int = 0
    optional_stalls: int = 0

    def merge(self, other: "ConstructionStats") -> None:
        self.steps += other.steps
        self.ready_scans += other.ready_scans
        self.successor_ops += other.successor_ops
        self.stalls += other.stalls
        self.optional_stalls += other.optional_stalls


@dataclass
class AntResult:
    """One ant's candidate schedule.

    ``alive`` is False when the ant was terminated for violating the
    pressure constraint (pass 2) — its schedule fields are then partial and
    must not be used.
    """

    order: Tuple[int, ...]
    rp_cost_value: int
    length: int
    peak: Dict[RegisterClass, int]
    stats: ConstructionStats
    alive: bool = True
    cycles: Optional[Tuple[int, ...]] = None


def _default_decider(params: ACOParams, rng: random.Random) -> ExploitDecider:
    q0 = params.exploitation_prob
    return lambda _step: rng.random() < q0


def _scores(
    pheromone_row,
    candidates: List[int],
    prepared: PreparedHeuristic,
    state: SchedulingState,
) -> List[float]:
    """``tau * eta**beta`` per candidate, the heuristic factors in one call."""
    weights = prepared.eta_weights(candidates, state)
    return [pheromone_row[j] * weight for j, weight in zip(candidates, weights)]


def construct_order(
    ddg: DDG,
    machine: MachineModel,
    pheromone: PheromoneTable,
    prepared: PreparedHeuristic,
    params: ACOParams,
    rng: random.Random,
    exploit_decider: Optional[ExploitDecider] = None,
    table: Optional[RegisterTable] = None,
) -> AntResult:
    """Pass-1 construction: an instruction order minimizing RP cost.

    ``table`` is the region's register table, shared by a pass's ants.
    """
    if exploit_decider is None:
        exploit_decider = _default_decider(params, rng)
    region = ddg.region
    n = ddg.num_instructions
    tracker = PressureTracker(region, table)
    state = SchedulingState(ddg, tracker)
    stats = ConstructionStats()
    unscheduled_preds = list(ddg.num_predecessors)
    ready: List[int] = list(ddg.roots)
    order: List[int] = []
    previous = -1
    for step in range(n):
        row = pheromone.row(previous)
        scores = _scores(row, ready, prepared, state)
        stats.ready_scans += len(ready)
        stats.steps += 1
        pick = select_index(scores, rng, exploit_decider(step))
        chosen = ready.pop(pick)
        order.append(chosen)
        tracker.schedule_at(chosen)
        stats.successor_ops += len(ddg.successors[chosen])
        for succ, _lat in ddg.successors[chosen]:
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                ready.append(succ)
        previous = chosen
    peak = tracker.peak_pressure()
    return AntResult(
        order=tuple(order),
        rp_cost_value=rp_cost(peak, machine),
        length=n,
        peak=peak,
        stats=stats,
    )


def construct_cycles(
    ddg: DDG,
    machine: MachineModel,
    pheromone: PheromoneTable,
    prepared: PreparedHeuristic,
    params: ACOParams,
    rng: random.Random,
    target_pressure: Dict[RegisterClass, int],
    allow_optional_stalls: bool,
    stall_heuristic: Optional[OptionalStallHeuristic] = None,
    exploit_decider: Optional[ExploitDecider] = None,
    max_length: Optional[int] = None,
    table: Optional[RegisterTable] = None,
) -> AntResult:
    """Pass-2 construction: a cycle-accurate schedule under the RP target.

    Returns a dead result (``alive=False``) if the ant exceeds the target
    pressure or overruns ``max_length`` cycles. ``table`` is the region's
    register table, shared by a pass's ants.
    """
    if exploit_decider is None:
        exploit_decider = _default_decider(params, rng)
    if stall_heuristic is None:
        stall_heuristic = OptionalStallHeuristic(params, ddg.num_instructions)
    region = ddg.region
    n = ddg.num_instructions
    if max_length is None:
        max_length = 4 * n + 64
    tracker = PressureTracker(region, table)
    state = SchedulingState(ddg, tracker)
    stats = ConstructionStats()
    unscheduled_preds = list(ddg.num_predecessors)
    earliest = [0] * n
    ready: List[int] = list(ddg.roots)
    pending: List[Tuple[int, int]] = []  # (release_cycle, index)
    # The earliest release in ``pending``: no rescan is due before it.
    next_release = _NEVER
    cycles = [0] * n
    order: List[int] = []
    cycle = 0
    scheduled = 0
    step = 0

    def dead() -> AntResult:
        peak = tracker.peak_pressure()
        return AntResult(
            order=tuple(order),
            rp_cost_value=rp_cost(peak, machine),
            length=cycle + 1,
            peak=peak,
            stats=stats,
            alive=False,
        )

    while scheduled < n:
        if cycle > max_length:
            return dead()
        if next_release <= cycle:
            # Released instructions join ``ready`` in ``pending`` order,
            # which the roulette depends on.
            still_pending = []
            next_release = _NEVER
            for release, index in pending:
                if release <= cycle:
                    ready.append(index)
                else:
                    still_pending.append((release, index))
                    if release < next_release:
                        next_release = release
            pending = still_pending
        stats.steps += 1

        if not ready:
            # Necessary stall(s): jump to the next release point.
            if not pending:
                raise ScheduleError("DDG is not schedulable (cycle?)")
            stats.stalls += next_release - cycle
            cycle = next_release
            continue

        # Candidates that would push the peak past the target doom the ant
        # with certainty (the peak never recedes); restrict selection to the
        # safe ones — a pure pruning of the terminate-on-violation rule.
        excesses = tracker.excesses_if_scheduled(ready, target_pressure)
        safe = [i for i, excess in zip(ready, excesses) if excess <= 0]
        stall_capable = (
            allow_optional_stalls
            and pending
            and stats.optional_stalls < stall_heuristic.max_optional_stalls
        )
        if not safe:
            if stall_capable:
                # Forced stall: wait for semi-ready pressure relief.
                stats.stalls += 1
                stats.optional_stalls += 1
                cycle += 1
                continue
            return dead()

        if stall_capable:
            if stall_heuristic.should_stall(
                tracker,
                min(excesses),
                [i for _r, i in pending],
                target_pressure,
                stats.optional_stalls,
                rng,
            ):
                stats.stalls += 1
                stats.optional_stalls += 1
                cycle += 1
                continue

        state.cycle = cycle
        previous = order[-1] if order else -1
        row = pheromone.row(previous)
        scores = _scores(row, safe, prepared, state)
        stats.ready_scans += len(ready)
        pick = select_index(scores, rng, exploit_decider(step))
        step += 1
        chosen = safe[pick]
        ready.remove(chosen)
        cycles[chosen] = cycle
        order.append(chosen)
        tracker.schedule_at(chosen)
        scheduled += 1
        stats.successor_ops += len(ddg.successors[chosen])
        for succ, latency in ddg.successors[chosen]:
            release = cycle + latency
            if release > earliest[succ]:
                earliest[succ] = release
            unscheduled_preds[succ] -= 1
            if unscheduled_preds[succ] == 0:
                release = earliest[succ]
                pending.append((release, succ))
                if release < next_release:
                    next_release = release
        # The constraint-violation rule: terminate on exceeding the target.
        if tracker.peak_exceeds(target_pressure):
            return dead()
        cycle += 1

    peak = tracker.peak_pressure()
    return AntResult(
        order=tuple(order),
        rp_cost_value=rp_cost(peak, machine),
        length=(max(cycles) + 1) if cycles else 0,
        peak=peak,
        stats=stats,
        alive=True,
        cycles=tuple(cycles),
    )
