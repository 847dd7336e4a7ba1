"""The production-baseline stand-in: a max-occupancy greedy scheduler.

Models the policy of AMD's ``GCNMaxOccupancyScheduler`` (the paper's
baseline): a greedy list scheduler that normally pursues ILP (critical-path
first) but switches to pressure-reduction mode whenever the running register
pressure approaches the boundary where the kernel would lose an occupancy
level. In pressure mode it prefers instructions that close live ranges and
avoid opening new ones — the same two-mode shape as LLVM's
``GenericScheduler`` with the AMD occupancy heuristics on top.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..ddg.graph import DDG
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..rp.cost import rp_cost
from ..schedule.schedule import Schedule
from .base import PreparedHeuristic, SchedulingState
from .list_scheduler import list_schedule, order_schedule


class _PreparedMaxOccupancy(PreparedHeuristic):
    """Two-mode greedy policy bound to one region."""

    def __init__(
        self,
        ddg: DDG,
        machine: MachineModel,
        headroom: int,
        ilp_height_weight: float = 1.0,
        ilp_source_weight: float = 0.6,
    ):
        super().__init__(ddg)
        # Pressure ceilings: the largest pressure per class that still
        # permits the occupancy reachable by this region's live-in set alone.
        # Pressure mode starts once a class's running pressure exceeds its
        # ceiling less the headroom.
        base_pressure = {cls: 0 for cls in machine.classes()}
        for reg in ddg.region.live_in:
            if reg.reg_class in base_pressure:
                base_pressure[reg.reg_class] += 1
        target_occupancy = machine.occupancy_for_pressure(base_pressure)
        limits = []
        for cls in machine.classes():
            table = machine.table_for(cls)
            ceiling = 0
            for max_pressure, occ in table.breakpoints:
                if occ >= target_occupancy:
                    ceiling = max_pressure
            limits.append((cls, ceiling - headroom))
        self._limits: Tuple[Tuple[RegisterClass, int], ...] = tuple(limits)
        # ILP mode: like LLVM's GenericScheduler the policy is partly
        # myopic — critical-path height blended with a source-order
        # preference (the scheduler sees latency locally, not the whole
        # DAG). The imperfection is the gap a global search can close.
        # Neither term depends on the partial schedule, so the scores are
        # fixed per instruction.
        height = self.cp_info.height
        n = ddg.num_instructions
        self._ilp_scores = [
            ilp_height_weight * float(height[i]) + ilp_source_weight * float(n - i)
            for i in range(n)
        ]
        # Pressure mode: the static part of the score, per instruction.
        self._uses_less_defs = [len(inst.uses) - len(inst.defs) for inst in ddg.region]
        self._height_ties = [h / self.score_scale for h in height]
        # The mode depends only on the running pressure, which changes at
        # most once per issue step: decide it on a change, not per candidate.
        self._pressure: Optional[Tuple] = None
        self._critical = False

    def score(self, index: int, state: SchedulingState) -> float:
        pressure = state.tracker.pressure_key()
        if pressure != self._pressure:
            self._pressure = pressure
            current = state.tracker.current
            self._critical = any(
                current.get(cls, 0) > limit for cls, limit in self._limits
            )
        if self._critical:
            closed = state.tracker.closes_ranges(self.ddg.region[index])
            return (
                closed + self._uses_less_defs[index] + 1.0
            ) * self.score_scale + self._height_ties[index]
        return self._ilp_scores[index]


class AMDMaxOccupancyScheduler:
    """The greedy baseline scheduler used throughout the evaluation.

    ``headroom`` is how close (in registers) the running pressure may get to
    an occupancy boundary before the policy flips into pressure mode.
    """

    name = "amd-max-occupancy"

    def __init__(
        self,
        machine: MachineModel,
        headroom: int = 2,
        ilp_height_weight: float = 1.0,
        ilp_source_weight: float = 0.6,
    ):
        self.machine = machine
        self.headroom = headroom
        self.ilp_height_weight = ilp_height_weight
        self.ilp_source_weight = ilp_source_weight

    def _prepared(self, ddg: DDG) -> _PreparedMaxOccupancy:
        return _PreparedMaxOccupancy(
            ddg,
            self.machine,
            self.headroom,
            self.ilp_height_weight,
            self.ilp_source_weight,
        )

    def schedule(self, ddg: DDG) -> Schedule:
        """Produce the final (latency-aware) heuristic schedule."""
        prepared = self._prepared(ddg)
        return list_schedule(ddg, self.machine, priority=prepared.score)

    def order_only(self, ddg: DDG) -> Schedule:
        """Latency-blind variant, used as the pass-1 heuristic schedule."""
        prepared = self._prepared(ddg)
        return order_schedule(ddg, priority=prepared.score)

    def rp_cost_of(self, schedule: Schedule) -> int:
        from ..rp.liveness import peak_pressure

        return rp_cost(peak_pressure(schedule), self.machine)
