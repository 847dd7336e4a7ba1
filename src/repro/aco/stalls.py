"""The optional-stall heuristic (Sections IV-C and V-B).

In pass 2 a stall is *necessary* when the ready list is empty, and
*optional* when the ant chooses to wait for semi-ready instructions (issued
producers whose latency has not yet elapsed) instead of scheduling a ready
instruction that would push register pressure toward or past the pass-1
target. The paper's heuristic considers

* the pressure impact of the ready instructions,
* the pressure impact of the semi-ready instructions, and
* how many optional stalls were already inserted (the more stalls, the less
  likely another one — too many make the schedule excessively long).

The ant hands over its least ready excess, taken from the preview it
already made of the ready list, and the heuristic previews the semi-ready
list in one :meth:`~repro.rp.tracker.PressureTracker.excesses_if_scheduled`
call, so no candidate is previewed twice in a step.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Sequence

from ..config import ACOParams
from ..ir.registers import RegisterClass
from ..rp.tracker import PressureTracker


class OptionalStallHeuristic:
    """Decides whether to insert an optional stall at the current cycle."""

    def __init__(self, params: ACOParams, region_size: int):
        self.params = params
        self.max_optional_stalls = max(
            1, math.ceil(params.optional_stall_budget * region_size)
        )

    def _budget_factor(self, stalls_so_far: int) -> float:
        return max(0.0, 1.0 - stalls_so_far / self.max_optional_stalls)

    def should_stall(
        self,
        tracker: PressureTracker,
        best_ready: int,
        semi_ready: Sequence[int],
        target: Dict[RegisterClass, int],
        stalls_so_far: int,
        rng: random.Random,
    ) -> bool:
        """True if the ant should burn this cycle waiting (optional stall).

        ``best_ready`` is the least pressure impact among the (non-empty)
        ready list, which the ant has already previewed to find its safe
        candidates; ``semi_ready`` are instruction indices, previewed in
        one :meth:`PressureTracker.excesses_if_scheduled` call over
        ``target`` (pressure impact is the worst per-class overshoot).
        """
        if not semi_ready:
            return False  # nothing to trade off
        if best_ready < 0:
            return False  # something schedulable stays strictly under target

        # Waiting only helps if a semi-ready instruction relieves pressure
        # relative to the best ready option.
        best_semi = min(tracker.excesses_if_scheduled(semi_ready, target))
        if best_semi >= best_ready:
            return False

        if best_ready > 0:
            # Every ready choice violates the constraint (the ant would be
            # terminated): stall within the budget.
            probability = self._budget_factor(stalls_so_far)
        else:
            # At the boundary: stall with the configured probability, fading
            # as stalls accumulate.
            probability = self.params.optional_stall_prob * self._budget_factor(
                stalls_so_far
            )
        return rng.random() < probability
