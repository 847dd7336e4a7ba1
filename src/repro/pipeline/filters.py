"""Selective-invocation and post-scheduling filters (Section VI-D).

ACO is expensive, so the pipeline applies it only where a significant
benefit is plausible:

* :class:`InvocationFilter` — run ACO on a region iff the heuristic's RP
  cost exceeds its lower bound (the RP pass has provable room) **or** the
  heuristic schedule length exceeds the length lower bound by more than the
  *cycle threshold* (Table 7 sweeps it; 21 was best).
* :class:`PostSchedulingFilter` — after ACO, keep whichever of the ACO and
  heuristic schedules balances occupancy and ILP better: revert to the
  heuristic when ACO's occupancy gain is at most
  :data:`REVERT_OCCUPANCY_GAIN` while its length degradation exceeds
  :data:`REVERT_LENGTH_DEGRADATION` (experimentally +3 occupancy / +63
  cycles in the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..config import FilterParams

#: The post-scheduling filter's exchange rate (Section VI-D): a gain of
#: this many occupancy steps ...
REVERT_OCCUPANCY_GAIN = 3
#: ... pays for at most this many extra cycles of schedule length.
REVERT_LENGTH_DEGRADATION = 63


class FilterDecision(enum.Enum):
    """Why a region did or did not get an ACO schedule."""

    SKIPPED_OPTIMAL = "heuristic-at-lower-bound"
    SKIPPED_THRESHOLD = "gap-below-cycle-threshold"
    ACO_APPLIED = "aco-applied"
    REVERTED = "reverted-to-heuristic"
    #: The resilience ladder exhausted its engine rungs (faults/deadline)
    #: and the heuristic schedule shipped — degraded but correct.
    DEGRADED = "degraded-to-heuristic"
    #: Same shipped schedule, but degradation was disabled: the region is
    #: reported as unrecoverable (the CLI maps this to a nonzero exit).
    UNRECOVERABLE = "unrecoverable-shipped-heuristic"


@dataclass(frozen=True)
class InvocationFilter:
    """Decides whether ACO runs on a region at all."""

    params: FilterParams

    def should_invoke(
        self,
        heuristic_rp_cost: int,
        rp_cost_lb: int,
        heuristic_length: int,
        length_lb: int,
    ) -> bool:
        rp_room = heuristic_rp_cost > rp_cost_lb
        ilp_room = heuristic_length - length_lb > self.params.cycle_threshold
        return rp_room or ilp_room

    def decision_for_skip(
        self, heuristic_length: int, length_lb: int
    ) -> FilterDecision:
        if heuristic_length <= length_lb:
            return FilterDecision.SKIPPED_OPTIMAL
        return FilterDecision.SKIPPED_THRESHOLD


class PostSchedulingFilter:
    """Chooses between the final ACO schedule and the heuristic schedule."""

    def keep_aco(
        self,
        aco_occupancy: int,
        aco_length: int,
        heuristic_occupancy: int,
        heuristic_length: int,
    ) -> bool:
        occupancy_gain = aco_occupancy - heuristic_occupancy
        length_loss = aco_length - heuristic_length
        if occupancy_gain < 0:
            # ACO never *should* lose occupancy (the pass-2 constraint keeps
            # the pass-1 pressure), but be safe against target quirks.
            return aco_length < heuristic_length
        if occupancy_gain == 0:
            return length_loss < 0
        # One occupancy step buys REVERT_LENGTH_DEGRADATION /
        # REVERT_OCCUPANCY_GAIN cycles of slack (the paper's tuned values,
        # +3 occupancy vs. +63 cycles, price a step at 21 cycles).
        slack_per_step = REVERT_LENGTH_DEGRADATION / REVERT_OCCUPANCY_GAIN
        return length_loss <= occupancy_gain * slack_per_step
