"""The Critical-Path (CP) guiding heuristic.

Scores a candidate by its latency-weighted height in the DDG: instructions
that head long dependence chains issue first, which minimizes schedule
length aggressively (Section V-B calls CP one of the "more aggressive ILP
heuristics").
"""

from __future__ import annotations

from typing import List, Sequence

from ..ddg.graph import DDG
from .base import HEURISTIC_WEIGHT, GuidingHeuristic, PreparedHeuristic, SchedulingState


class PreparedCriticalPath(PreparedHeuristic):
    def __init__(self, ddg: DDG):
        super().__init__(ddg)
        # The score ignores the state, so each instruction's eta**beta is
        # fixed for the region: compute it once, as ``eta`` would.
        self._eta_weights = tuple(
            [max(1e-6, 1.0 + float(height)) ** HEURISTIC_WEIGHT for height in self.cp_info.height]
        )

    def score(self, index: int, state: SchedulingState) -> float:
        return float(self.cp_info.height[index])

    def eta_weights(self, candidates: Sequence[int], state: SchedulingState) -> List[float]:
        weights = self._eta_weights
        return [weights[j] for j in candidates]


class CriticalPathHeuristic(GuidingHeuristic):
    name = "critical-path"

    def prepare(self, ddg: DDG) -> PreparedHeuristic:
        return PreparedCriticalPath(ddg)
