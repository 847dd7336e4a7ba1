"""The sequential two-pass ACO scheduler (Section IV-A).

This is the CPU reference implementation the parallel scheduler is compared
against in Tables 3.a/3.b and Table 5. Pass 1 minimizes the APRP-based RP
cost over instruction *orders*; pass 2 fixes the pass-1 pressure as a hard
constraint and minimizes schedule *length* over cycle-accurate schedules
with stalls. Each pass runs ``sequential_ants`` ants per iteration and
terminates on the lower bound or on stagnation.

The passes themselves — termination, pheromone update, deadline,
checkpoint and resume — are the shared :class:`~repro.aco.driver.TwoPassDriver`.
This module is only the CPU construction engine: ``sequential_ants``
calls of :func:`~repro.aco.ant.construct_order` (pass 1) or
:func:`~repro.aco.ant.construct_cycles` (pass 2) per iteration, over one
``random.Random`` shared by both passes.

Scheduling time is reported through the deterministic CPU cost model of
:mod:`repro.timing` (see that module for why wall-clock Python timing would
not reproduce the paper's mechanisms).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from ..config import ACOParams
from ..ddg.graph import DDG
from ..heuristics.base import GuidingHeuristic
from ..heuristics.critical_path import CriticalPathHeuristic
from ..machine.model import MachineModel
from ..profile import get_profiler
from ..rp.tracker import RegisterTable
from ..telemetry import Telemetry
from ..timing import DEFAULT_CPU_COST, CPUCostModel, HostSecondsLedger
from .ant import ConstructionStats, construct_cycles, construct_order
from .driver import ACOResult, PassCost, PassEngine, PassResult, TwoPassDriver, Winner
from .pheromone import PheromoneTable
from .seeding import launch_rng
from .stalls import OptionalStallHeuristic

__all__ = ["SequentialACOScheduler", "ACOResult", "PassResult"]


class _SequentialPass(PassEngine):
    """One pass of ``sequential_ants`` CPU ants per iteration.

    Charges a :class:`HostSecondsLedger` from the CPU cost model (region
    overhead, per-ant construction, pheromone update) and emits a profiler
    span per iteration.
    """

    def __init__(self, scheduler, ddg, pass_index, rng, target, max_length):
        self.scheduler = scheduler
        self.ddg = ddg
        self.pass_index = pass_index
        self.rng = rng
        self.target = target
        self.max_length = max_length
        cost_model = scheduler.cost_model
        self.ledger = HostSecondsLedger(cost_model.region_overhead)
        self.charged = 0.0
        self.stats = ConstructionStats()
        self.prof = get_profiler()
        self.prof.push("pass%d" % pass_index, "pass")
        self.prof.charge_leaf("overhead", cost_model.region_overhead, "overhead")
        # One register table per pass, shared by every ant's tracker.
        self.table = RegisterTable(ddg.region)
        if pass_index == 1:
            self.prepared = scheduler.rp_heuristic.prepare(ddg)
        else:
            self.prepared = scheduler.ilp_heuristic.prepare(ddg)
            self.stall_heuristic = OptionalStallHeuristic(scheduler.params, len(ddg.region))
        self.iteration_ledger = HostSecondsLedger()

    def construct(self, iteration, pheromone, checkpoint):
        scheduler = self.scheduler
        params = scheduler.params
        winner = None
        self.iteration_ledger = construct = HostSecondsLedger()
        for _ant in range(params.sequential_ants):
            if self.pass_index == 1:
                result = construct_order(
                    self.ddg,
                    scheduler.machine,
                    pheromone,
                    self.prepared,
                    params,
                    self.rng,
                    table=self.table,
                )
                better = winner is None or result.rp_cost_value < winner.rp_cost_value
            else:
                result = construct_cycles(
                    self.ddg,
                    scheduler.machine,
                    pheromone,
                    self.prepared,
                    params,
                    self.rng,
                    target_pressure=self.target,
                    allow_optional_stalls=True,
                    stall_heuristic=self.stall_heuristic,
                    max_length=self.max_length,
                    table=self.table,
                )
                better = result.alive and (winner is None or result.length < winner.length)
            self.stats.merge(result.stats)
            ant_seconds = scheduler.cost_model.construction_seconds(
                result.stats.steps,
                result.stats.ready_scans,
                result.stats.successor_ops,
            )
            self.ledger.charge(ant_seconds)
            construct.charge(ant_seconds)
            if better:
                winner = result
        if winner is None:
            return None
        if self.pass_index == 1:
            return Winner(winner.rp_cost_value, winner.order, peak=winner.peak)
        return Winner(winner.length, winner.order, peak=winner.peak, cycles=winner.cycles)

    def after_update(self, pheromone: PheromoneTable) -> None:
        pheromone_seconds = self.scheduler.cost_model.pheromone_seconds(
            pheromone.touched_entries()
        )
        self.ledger.charge(pheromone_seconds)
        prof = self.prof
        if prof.enabled:
            with prof.span("iteration", "iteration"):
                prof.charge_leaf("construct", self.iteration_ledger.total, "construct")
                prof.charge_leaf("pheromone", pheromone_seconds, "pheromone")

    def uncharged_seconds(self) -> float:
        seconds = self.ledger.total - self.charged
        self.charged = self.ledger.total
        return seconds

    def checkpoint_fields(self) -> Dict:
        return {"backend": "sequential"}

    def finish(self) -> PassCost:
        self.prof.pop()
        return PassCost(seconds=self.ledger.total, stats=self.stats)


class SequentialACOScheduler(TwoPassDriver):
    """Two-pass ACO scheduling on the CPU.

    The resilience arguments of :meth:`schedule` mirror the parallel
    scheduler's so the degradation ladder can swap engines freely. The CPU
    engine has no device hazards (``fault_plan`` and ``attempt`` are
    ignored), which is exactly why it is the ladder's safe rung. Its resume
    is always *partial*: one ``random.Random`` spans both passes, so a
    checkpoint from another engine cannot continue its draw sequence —
    the learned state (pheromone, global best, tracker counters) carries
    over and the remaining exploration draws fresh. This is the
    cross-engine rung of the degradation ladder: a hung parallel attempt
    hands its progress to the CPU engine.
    """

    name = "sequential-aco"
    backend = "sequential"

    def __init__(
        self,
        machine: MachineModel,
        params: Optional[ACOParams] = None,
        rp_heuristic: Optional[GuidingHeuristic] = None,
        ilp_heuristic: Optional[GuidingHeuristic] = None,
        cost_model: CPUCostModel = DEFAULT_CPU_COST,
        telemetry: Optional[Telemetry] = None,
        verify: bool = False,
    ):
        super().__init__(machine, params, telemetry, verify, rp_heuristic)
        self.ilp_heuristic = ilp_heuristic or CriticalPathHeuristic()
        self.cost_model = cost_model

    def _open_region(self, ddg: DDG, seed: int, fault_plan, attempt: int) -> random.Random:
        return launch_rng(seed)

    def _open_pass(self, region_state, ddg, pass_index, budget, resume, target, max_length):
        return _SequentialPass(self, ddg, pass_index, region_state, target, max_length)
