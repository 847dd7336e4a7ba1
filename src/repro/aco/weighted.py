"""The weighted-sum (single-pass) ACO variant.

Section II-A: two approaches exist for the two-objective RP-aware problem —
minimizing a *weighted sum* of schedule length and RP cost (Shobaki et al.
TACO 2013/2019, used on CPU targets) or the *two-pass* approach (CGO 2020),
and "since the two-pass approach was found to work better on the GPU, we
use it in this work".

This module implements the rejected alternative so the design choice can be
reproduced as an ablation (``benchmarks/bench_cost_functions.py``): a
single ACO pass over cycle-accurate schedules minimizing

``cost = length + pressure_weight * (rp_cost - rp_cost_lower_bound)``

The expected GPU-specific failure mode: occupancy is a *step* function of
pressure, so a scalarized trade-off either underweights pressure (losing
occupancy whenever latency hiding is cheap) or overweights it (stretching
schedules chasing pressure that cannot change occupancy); the two-pass
scheme never pays length for pressure below the next APRP step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import ACOParams
from ..ddg.graph import DDG
from ..ddg.lower_bounds import RegionBounds, region_bounds
from ..heuristics.base import GuidingHeuristic
from ..heuristics.critical_path import CriticalPathHeuristic
from ..heuristics.list_scheduler import schedule_in_order
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..rp.cost import rp_cost, rp_cost_lower_bound
from ..rp.liveness import peak_pressure
from ..rp.tracker import RegisterTable
from ..schedule.schedule import Schedule
from ..timing import DEFAULT_CPU_COST, CPUCostModel, HostSecondsLedger
from .ant import AntResult, ConstructionStats, construct_cycles
from .pheromone import PheromoneTable
from .seeding import launch_rng
from .driver import PassResult
from .termination import TerminationTracker

#: Effectively-unconstrained pressure target (ants never die; the weighted
#: cost, not a hard constraint, penalizes pressure).
_NO_TARGET: Dict[RegisterClass, int] = {}


@dataclass
class WeightedACOResult:
    """Outcome of the single weighted-sum pass."""

    schedule: Schedule
    peak: Dict[RegisterClass, int]
    weighted_cost: float
    result: PassResult

    @property
    def length(self) -> int:
        return self.schedule.length

    @property
    def seconds(self) -> float:
        return self.result.seconds


class WeightedSumACOScheduler:
    """Single-pass ACO over ``length + weight * excess-pressure-cost``."""

    name = "weighted-sum-aco"

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        pressure_weight: float = 0.1,
        heuristic: Optional[GuidingHeuristic] = None,
        cost_model: CPUCostModel = DEFAULT_CPU_COST,
    ):
        if pressure_weight < 0:
            raise ValueError("pressure_weight must be >= 0")
        self.machine = machine
        self.params = params or ACOParams()
        self.params.validate()
        self.pressure_weight = pressure_weight
        self.heuristic = heuristic or CriticalPathHeuristic()
        self.cost_model = cost_model

    def _weighted_cost(self, length: float, peak: Dict[RegisterClass, int], rp_lb: int) -> float:
        excess = max(0, rp_cost(peak, self.machine) - rp_lb)
        return length + self.pressure_weight * excess

    def schedule(
        self,
        ddg: DDG,
        seed: int = 0,
        initial_order: Optional[Tuple[int, ...]] = None,
        bounds: Optional[RegionBounds] = None,
        reference_schedule: Optional[Schedule] = None,
    ) -> WeightedACOResult:
        """One ACO pass on the scalarized objective."""
        if bounds is None:
            bounds = region_bounds(ddg)
        region = ddg.region
        rp_lb = rp_cost_lower_bound(bounds, self.machine)
        rng = launch_rng(seed)

        if initial_order is None:
            from ..heuristics.list_scheduler import order_schedule

            initial_order = order_schedule(ddg, heuristic=self.heuristic).order
        initial = schedule_in_order(ddg, initial_order)
        if reference_schedule is not None and reference_schedule.length < initial.length:
            initial = reference_schedule
        best_schedule = initial
        best_peak = peak_pressure(initial)
        best_cost = self._weighted_cost(initial.length, best_peak, rp_lb)

        # The scalarized LB: perfect length and pressure simultaneously.
        lower_bound = float(bounds.length)

        prepared = self.heuristic.prepare(ddg)
        table = RegisterTable(region)
        pheromone = PheromoneTable(ddg.num_instructions, self.params)
        tracker = TerminationTracker(
            lower_bound=lower_bound,
            stagnation_limit=self.params.termination_condition(len(region)),
            best_cost=best_cost,
        )
        stats = ConstructionStats()
        ledger = HostSecondsLedger(self.cost_model.region_overhead)
        trace = []
        max_length = max(2 * initial.length, initial.length + 16)
        while not tracker.should_stop() and tracker.iterations < self.params.max_iterations:
            winner: Optional[AntResult] = None
            winner_cost = float("inf")
            # Aspiration windows: half the ants chase a *better* pressure
            # than the incumbent (their stall heuristic fires at the lower
            # boundary, putting pressure-reducing stalls in the search
            # space), the other half get slack above it (shorter-but-hotter
            # schedules stay constructible); the weighted cost judges both.
            tighter = {
                cls: max(0, best_peak.get(cls, 0) - 1)
                for cls in self.machine.classes()
            }
            looser = {
                cls: best_peak.get(cls, 0) + 2 for cls in self.machine.classes()
            }
            for ant in range(self.params.sequential_ants):
                result = construct_cycles(
                    ddg,
                    self.machine,
                    pheromone,
                    prepared,
                    self.params,
                    rng,
                    target_pressure=tighter if ant % 2 == 0 else looser,
                    allow_optional_stalls=True,
                    max_length=max_length,
                    table=table,
                )
                stats.merge(result.stats)
                ledger.charge(
                    self.cost_model.construction_seconds(
                        result.stats.steps,
                        result.stats.ready_scans,
                        result.stats.successor_ops,
                    )
                )
                if not result.alive:
                    continue
                cost = self._weighted_cost(result.length, result.peak, rp_lb)
                if cost < winner_cost:
                    winner, winner_cost = result, cost
            pheromone.decay()
            if winner is None:
                trace.append(float("inf"))
                tracker.record_iteration(tracker.best_cost)
                continue
            trace.append(winner_cost)
            pheromone.deposit(winner.order, winner_cost - lower_bound)
            ledger.charge(self.cost_model.pheromone_seconds(pheromone.touched_entries()))
            if tracker.record_iteration(winner_cost):
                assert winner.cycles is not None
                best_schedule = Schedule(region, winner.cycles)
                best_peak = dict(winner.peak)
                best_cost = winner_cost

        pass_result = PassResult(
            invoked=True,
            iterations=tracker.iterations,
            initial_cost=self._weighted_cost(initial.length, peak_pressure(initial), rp_lb),
            final_cost=best_cost,
            hit_lower_bound=tracker.hit_lower_bound,
            seconds=ledger.total,
            stats=stats,
            trace=tuple(trace),
        )
        return WeightedACOResult(
            schedule=best_schedule,
            peak=best_peak,
            weighted_cost=best_cost,
            result=pass_result,
        )
