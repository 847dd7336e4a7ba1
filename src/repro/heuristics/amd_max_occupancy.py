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

from typing import Dict, List, Tuple

from ..ddg.graph import DDG
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..rp.cost import rp_cost
from ..schedule.schedule import Schedule
from .base import SchedulingState
from .list_scheduler import list_schedule, order_schedule
from .luc import PreparedLastUseCount


class _PreparedMaxOccupancy(PreparedLastUseCount):
    """Two-mode greedy policy bound to one region.

    Pressure mode scores a candidate exactly as the LUC heuristic does (net
    closed ranges, CP-height ties), so it inherits that score.
    """

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
        limits = {}
        for cls in machine.classes():
            table = machine.table_for(cls)
            ceiling = 0
            for max_pressure, occ in table.breakpoints:
                if occ >= target_occupancy:
                    ceiling = max_pressure
            limits[cls] = ceiling - headroom
        self._limits: Dict[RegisterClass, int] = limits
        # ILP mode: like LLVM's GenericScheduler the policy is partly
        # myopic — critical-path height blended with a source-order
        # preference (the scheduler sees latency locally, not the whole
        # DAG). The imperfection is the gap a global search can close.
        # Neither term depends on the partial schedule, so the scores, and
        # the pick keys with their index tie-break, are fixed per
        # instruction.
        height = self.cp_info.height
        n = ddg.num_instructions
        self._ilp_scores = [
            ilp_height_weight * float(height[i]) + ilp_source_weight * float(n - i)
            for i in range(n)
        ]
        self._ilp_keys: List[Tuple[float, int]] = [
            (score, -i) for i, score in enumerate(self._ilp_scores)
        ]

    def score(self, index: int, state: SchedulingState) -> float:
        if state.tracker.current_exceeds(self._limits):
            return super().score(index, state)
        return self._ilp_scores[index]

    def pick(self, ready: List[int], state: SchedulingState) -> int:
        """The ready instruction of highest ``(score, -index)``, as
        ``pick_by_priority(self.score)`` would choose it, with the mode
        decided once per pick rather than once per candidate."""
        if state.tracker.current_exceeds(self._limits):
            luc = super().score
            return max(ready, key=lambda i: (luc(i, state), -i))
        return max(ready, key=self._ilp_keys.__getitem__)


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
        return list_schedule(ddg, self.machine, pick=prepared.pick)

    def order_only(self, ddg: DDG) -> Schedule:
        """Latency-blind variant, used as the pass-1 heuristic schedule."""
        prepared = self._prepared(ddg)
        return order_schedule(ddg, pick=prepared.pick)

    def rp_cost_of(self, schedule: Schedule) -> int:
        from ..rp.liveness import schedule_peak

        return rp_cost(schedule_peak(schedule), self.machine)
