"""Branch-and-bound enumeration for the two scheduling objectives.

Both solvers explore the space of dependence-legal constructions with a
best-first flavour of depth-first search and prune with:

* **incumbent bounds** — a partial solution whose cost already matches or
  exceeds the best complete solution is abandoned;
* **memoized dominance** — the reachable future depends only on the set of
  scheduled instructions (plus, for the length solver, the current cycle
  and the operand-arrival times); a state revisited with a no-better
  partial cost is abandoned;
* **lower bounds** — the length solver adds the latency-weighted critical
  path of the unscheduled suffix.

Complexities are exponential; :class:`ExactLimits` guards against runaway
inputs (these solvers exist to certify optima on *small* regions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ddg.analysis import critical_path_info
from ..ddg.graph import DDG
from ..errors import ReproError
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..rp.cost import rp_cost
from ..rp.tracker import PressureTracker
from ..schedule.schedule import Schedule


class ExactSolverError(ReproError):
    """The region exceeds the exact solver's limits."""


@dataclass(frozen=True)
class ExactLimits:
    """Safety limits for the enumerative solvers."""

    max_instructions: int = 16
    #: Hard cap on explored states (raises if exhausted, so a silent
    #: truncation can never masquerade as an optimum certificate).
    max_states: int = 2_000_000

    def check_region(self, ddg: DDG) -> None:
        if ddg.num_instructions > self.max_instructions:
            raise ExactSolverError(
                "region has %d instructions; the exact solver accepts up to %d"
                % (ddg.num_instructions, self.max_instructions)
            )


def min_pressure_order(
    ddg: DDG,
    machine: MachineModel,
    limits: ExactLimits = ExactLimits(),
) -> Tuple[Tuple[int, ...], int]:
    """The instruction order minimizing the scalar RP cost, with its cost.

    Exhaustive over topological orders, pruned by the running peak: once a
    partial order's pressure cost reaches the incumbent's, no completion
    can do better (peaks never recede).
    """
    limits.check_region(ddg)
    n = ddg.num_instructions
    region = ddg.region
    states = [0]

    best_cost = [None]  # type: List[Optional[int]]
    best_order: List[Tuple[int, ...]] = [()]
    #: mask -> lowest running cost seen (dominance memo).
    seen: Dict[int, int] = {}

    tracker = PressureTracker(region)
    order: List[int] = []
    pred_left = list(ddg.num_predecessors)

    def running_cost() -> int:
        return rp_cost(tracker.peak_pressure(), machine)

    def dfs() -> None:
        states[0] += 1
        if states[0] > limits.max_states:
            raise ExactSolverError("state budget exhausted")
        cost_now = running_cost()
        if best_cost[0] is not None and cost_now >= best_cost[0]:
            return
        mask = 0
        for i in order:
            mask |= 1 << i
        prior = seen.get(mask)
        if prior is not None and prior <= cost_now:
            return
        seen[mask] = cost_now
        if len(order) == n:
            best_cost[0] = cost_now
            best_order[0] = tuple(order)
            return
        ready = [i for i in range(n) if pred_left[i] == 0 and not (mask >> i) & 1]
        # Explore pressure-friendlier candidates first (better incumbents
        # earlier mean more pruning later).
        ready.sort(key=lambda i: tracker.pressure_delta(region[i]))
        for candidate in ready:
            saved = tracker.snapshot()
            tracker.schedule_at(candidate)
            order.append(candidate)
            for succ, _lat in ddg.successors[candidate]:
                pred_left[succ] -= 1
            dfs()
            for succ, _lat in ddg.successors[candidate]:
                pred_left[succ] += 1
            order.pop()
            tracker.restore(saved)

    dfs()
    assert best_cost[0] is not None
    return best_order[0], best_cost[0]


def min_register_order(
    ddg: DDG,
    limits: ExactLimits = ExactLimits(),
) -> Tuple[Tuple[int, ...], int]:
    """The order minimizing the peak *register count*, with that count.

    Chen et al.'s min-register scheduling formulation (arXiv 2303.06855):
    minimize the maximum number of simultaneously live registers over the
    whole order, summed across register classes — the raw-allocation view
    of pressure, independent of any machine's APRP step weighting (which
    is why, unlike its siblings, this solver takes no machine). Same
    search skeleton as :func:`min_pressure_order`; only the objective
    changes (running peak of ``sum(live per class)``).

    The two optima can disagree: APRP weighting can prefer spending many
    registers of a cheap class to save one of an expensive class. The
    cross-check harness (:mod:`repro.exact.crosscheck`) uses this solver
    as the *model-independent* floor.
    """
    limits.check_region(ddg)
    n = ddg.num_instructions
    region = ddg.region
    states = [0]

    best_count = [None]  # type: List[Optional[int]]
    best_order: List[Tuple[int, ...]] = [()]
    #: mask -> lowest running peak count seen (dominance memo).
    seen: Dict[int, int] = {}

    tracker = PressureTracker(region)
    order: List[int] = []
    pred_left = list(ddg.num_predecessors)

    def running_count() -> int:
        return sum(tracker.peak.values())

    def dfs() -> None:
        states[0] += 1
        if states[0] > limits.max_states:
            raise ExactSolverError("state budget exhausted")
        count_now = running_count()
        if best_count[0] is not None and count_now >= best_count[0]:
            return
        mask = 0
        for i in order:
            mask |= 1 << i
        prior = seen.get(mask)
        if prior is not None and prior <= count_now:
            return
        seen[mask] = count_now
        if len(order) == n:
            best_count[0] = count_now
            best_order[0] = tuple(order)
            return
        ready = [i for i in range(n) if pred_left[i] == 0 and not (mask >> i) & 1]
        ready.sort(key=lambda i: tracker.pressure_delta(region[i]))
        for candidate in ready:
            saved = tracker.snapshot()
            tracker.schedule_at(candidate)
            order.append(candidate)
            for succ, _lat in ddg.successors[candidate]:
                pred_left[succ] -= 1
            dfs()
            for succ, _lat in ddg.successors[candidate]:
                pred_left[succ] += 1
            order.pop()
            tracker.restore(saved)

    dfs()
    assert best_count[0] is not None
    return best_order[0], best_count[0]


def min_length_schedule(
    ddg: DDG,
    machine: MachineModel,
    target_pressure: Optional[Dict[RegisterClass, int]] = None,
    limits: ExactLimits = ExactLimits(),
) -> Schedule:
    """The shortest latency-legal schedule within a pressure target.

    Explores cycle-by-cycle decisions (issue one ready instruction, or
    stall). ``target_pressure`` of ``None`` means unconstrained. Single
    issue (the paper's machine model).
    """
    limits.check_region(ddg)
    n = ddg.num_instructions
    region = ddg.region
    target = target_pressure or {}
    cp = critical_path_info(ddg)
    states = [0]

    best_length = [None]  # type: List[Optional[int]]
    best_cycles: List[Tuple[int, ...]] = [()]
    #: (mask, tuple of pending releases) -> earliest cycle seen.
    seen: Dict[Tuple[int, int], int] = {}

    tracker = PressureTracker(region)
    cycles = [0] * n
    pred_left = list(ddg.num_predecessors)
    earliest = [0] * n

    def suffix_bound(cycle: int, mask: int) -> int:
        """cycle + the critical path of the unscheduled suffix."""
        bound = cycle
        for i in range(n):
            if not (mask >> i) & 1:
                bound = max(bound, max(earliest[i], cycle) + cp.height[i])
        return bound

    # No useful schedule stalls more than one full latency per instruction:
    # past this horizon a branch is infeasible, not merely long.
    max_latency = max((lat for i in range(n) for _s, lat in ddg.successors[i]), default=1)
    horizon = (n + 1) * (max_latency + 1)

    def dfs(cycle: int, scheduled: int, mask: int) -> None:
        states[0] += 1
        if states[0] > limits.max_states:
            raise ExactSolverError("state budget exhausted")
        if cycle > horizon:
            return
        if scheduled == n:
            length = max(cycles) + 1
            if best_length[0] is None or length < best_length[0]:
                best_length[0] = length
                best_cycles[0] = tuple(cycles)
            return
        if best_length[0] is not None and suffix_bound(cycle, mask) >= best_length[0]:
            return
        key = (mask, cycle - min(
            (earliest[i] for i in range(n) if not (mask >> i) & 1), default=cycle
        ))
        prior = seen.get(key)
        if prior is not None and prior <= cycle:
            return
        seen[key] = cycle

        ready = [
            i
            for i in range(n)
            if pred_left[i] == 0 and not (mask >> i) & 1 and earliest[i] <= cycle
        ]
        ready.sort(key=lambda i: -cp.height[i])
        progressed = False
        for candidate in ready:
            if tracker.excess_if_scheduled(candidate, target) > 0:
                continue
            progressed = True
            saved = tracker.snapshot()
            saved_earliest = list(earliest)
            tracker.schedule_at(candidate)
            if tracker.peak_exceeds(target):
                tracker.restore(saved)
                continue
            cycles[candidate] = cycle
            for succ, lat in ddg.successors[candidate]:
                pred_left[succ] -= 1
                earliest[succ] = max(earliest[succ], cycle + lat)
            dfs(cycle + 1, scheduled + 1, mask | (1 << candidate))
            for succ, _lat in ddg.successors[candidate]:
                pred_left[succ] += 1
            earliest[:] = saved_earliest
            tracker.restore(saved)

        # Stalling is only ever useful when something is pending (waiting on
        # latency or on pressure relief from a pending closer).
        pending = [
            i for i in range(n) if pred_left[i] == 0 and not (mask >> i) & 1
        ]
        if pending:
            next_event = min(max(earliest[i], cycle + 1) for i in pending)
            if not progressed:
                dfs(next_event, scheduled, mask)
            else:
                # Optional stall: jump one cycle (finer jumps subsume longer
                # ones through recursion).
                dfs(cycle + 1, scheduled, mask)

    dfs(0, 0, 0)
    if best_length[0] is None:
        raise ExactSolverError(
            "no schedule satisfies the pressure target %s"
            % {str(k): v for k, v in target.items()}
        )
    return Schedule(region, best_cycles[0])
