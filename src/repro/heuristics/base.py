"""The guiding-heuristic interface.

A guiding heuristic scores ready instructions; the greedy list scheduler
picks the best score, and the ACO selection rule uses the score as the
``eta`` (desirability) term. Scores are floats where **higher is better**;
:meth:`GuidingHeuristic.eta` maps them onto strictly positive values for the
ACO probability formula.

Heuristics are stateless between regions: :meth:`prepare` returns a
region-bound :class:`PreparedHeuristic` so one heuristic object can be
shared across threads/regions.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..ddg.analysis import CriticalPathInfo, critical_path_info
from ..ddg.graph import DDG
from ..rp.tracker import PressureTracker

#: Exponent beta on the guiding-heuristic value in the ACO selection
#: product ``tau * eta**beta``; no run setting varies it.
HEURISTIC_WEIGHT = 2.0


@dataclass
class SchedulingState:
    """What a heuristic may look at when scoring a candidate.

    ``tracker`` reflects everything scheduled so far; ``cycle`` is the cycle
    about to issue (always 0 in the order-only RP pass).
    """

    ddg: DDG
    tracker: PressureTracker
    cycle: int = 0


class PreparedHeuristic(abc.ABC):
    """A guiding heuristic bound to one region (precomputed data included)."""

    def __init__(self, ddg: DDG):
        self.ddg = ddg
        self.cp_info: CriticalPathInfo = critical_path_info(ddg)
        # Normalization constant: scores are designed to fit in
        # [0, score_scale); composite heuristics stack tiers of this size.
        self.score_scale = float(max(self.cp_info.height) + 1)

    @abc.abstractmethod
    def score(self, index: int, state: SchedulingState) -> float:
        """Desirability of scheduling instruction ``index`` next (higher wins)."""

    def eta(self, index: int, state: SchedulingState) -> float:
        """Strictly positive desirability for the ACO selection formula."""
        return max(1e-6, 1.0 + self.score(index, state))

    def eta_weights(self, candidates: Sequence[int], state: SchedulingState) -> List[float]:
        """``eta(j, state) ** HEURISTIC_WEIGHT`` for each candidate ``j``:
        the heuristic factor of the ants' selection product, one call per
        construction step. A heuristic whose ``eta`` ignores the state
        answers from a table built once per :meth:`GuidingHeuristic.prepare`."""
        eta = self.eta
        return [eta(j, state) ** HEURISTIC_WEIGHT for j in candidates]


class GuidingHeuristic(abc.ABC):
    """Factory for :class:`PreparedHeuristic` instances."""

    name: str = "base"

    @abc.abstractmethod
    def prepare(self, ddg: DDG) -> PreparedHeuristic:
        """Bind this heuristic to a region."""

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__


def builtin_heuristics() -> Tuple[GuidingHeuristic, ...]:
    """The heuristics rotated across wavefront groups (Section V-B)."""
    from .critical_path import CriticalPathHeuristic
    from .luc import LastUseCountHeuristic

    return (CriticalPathHeuristic(), LastUseCountHeuristic())
