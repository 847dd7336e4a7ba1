"""The Last-Use-Count (LUC) guiding heuristic.

Scores a candidate primarily by how many live ranges it closes (its
last-use count under the current partial schedule) and penalizes opening
new ranges, breaking ties by critical-path height. LUC is the strongest of
the register-pressure-reduction heuristics evaluated by Shobaki et al.
(SPE 2015) and is the natural guide for the RP pass.
"""

from __future__ import annotations

from ..ddg.graph import DDG
from .base import GuidingHeuristic, PreparedHeuristic, SchedulingState


class PreparedLastUseCount(PreparedHeuristic):
    def __init__(self, ddg: DDG):
        super().__init__(ddg)
        # The static parts of the score, per instruction: its uses less
        # the ranges it opens (its defs), and the CP-height tie-break.
        self._uses_less_defs = [len(inst.uses) - len(inst.defs) for inst in ddg.region]
        self._ties = [h / self.score_scale for h in self.cp_info.height]

    def score(self, index: int, state: SchedulingState) -> float:
        # Tiered score: net closed ranges dominate, CP height breaks ties.
        closes = state.tracker.closes_at(index)
        return (closes + self._uses_less_defs[index] + 1.0) * self.score_scale + self._ties[index]


class LastUseCountHeuristic(GuidingHeuristic):
    name = "last-use-count"

    def prepare(self, ddg: DDG) -> PreparedHeuristic:
        return PreparedLastUseCount(ddg)
