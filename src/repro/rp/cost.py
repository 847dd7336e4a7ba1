"""Register-pressure cost functions and schedule quality.

The RP pass minimizes an APRP-based scalar cost (Section II-A). Occupancy on
the GPU is the *minimum* over the register files, so the cost is
lexicographic — first the occupancy deficit, then the summed APRP as a
tie-breaker that rewards moving a file closer to its next occupancy step:

``cost = (max_occupancy - occupancy) * OCCUPANCY_WEIGHT + sum_of_APRP``

Because APRP is a step function of PRP, schedules whose pressure differences
cannot change occupancy compare equal, exactly the property the paper
introduces APRP for.

:func:`evaluate_schedule` takes a schedule's peak from whoever already
computed it (the greedy schedulers' tracker, the ACO driver's result) and
replays the order only when nobody did; :mod:`repro.rp.tracker` lists the
producers. The verifier never takes a peak from a producer: it replays and
recounts, and checks the quality's claim against both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..ddg.lower_bounds import RegionBounds
from ..ir.registers import RegisterClass
from ..machine.model import MachineModel
from ..schedule.schedule import Schedule
from .liveness import schedule_peak

#: Weight of one occupancy step in the scalar RP cost. Larger than any
#: realistic APRP sum, so occupancy always dominates.
OCCUPANCY_WEIGHT = 10_000


def rp_cost(pressure: Mapping[RegisterClass, int], machine: MachineModel) -> int:
    """Scalar RP cost of a per-class peak pressure (lower is better)."""
    occupancy = machine.occupancy_for_pressure(pressure)
    aprp = machine.aprp(pressure)
    return (machine.max_occupancy - occupancy) * OCCUPANCY_WEIGHT + sum(aprp.values())


def rp_cost_lower_bound(bounds: RegionBounds, machine: MachineModel) -> int:
    """The RP cost of the per-class pressure lower bounds.

    APRP and occupancy are monotone in pressure, so this is a sound lower
    bound on any schedule's RP cost; reaching it terminates the RP pass.
    """
    return rp_cost(bounds.pressure_dict, machine)


@dataclass(frozen=True)
class ScheduleQuality:
    """Everything the evaluation reports about one schedule."""

    length: int
    peak_pressure: Tuple[Tuple[RegisterClass, int], ...]
    aprp: Tuple[Tuple[RegisterClass, int], ...]
    occupancy: int
    rp_cost: int

    @property
    def pressure_dict(self) -> Dict[RegisterClass, int]:
        return dict(self.peak_pressure)

    @property
    def aprp_dict(self) -> Dict[RegisterClass, int]:
        return dict(self.aprp)

    def dominates(self, other: "ScheduleQuality") -> bool:
        """Weak Pareto dominance: at least as good on both objectives."""
        return self.rp_cost <= other.rp_cost and self.length <= other.length


def evaluate_schedule(
    schedule: Schedule,
    machine: MachineModel,
    peak: Optional[Mapping[RegisterClass, int]] = None,
) -> ScheduleQuality:
    """Compute the full quality record of a schedule.

    The peak pressure is ``peak`` when the caller already holds it (the
    pipeline passes ``ACOResult.peak``), else
    :func:`~repro.rp.liveness.schedule_peak`'s.
    """
    prp = schedule_peak(schedule) if peak is None else peak
    aprp = machine.aprp(prp)
    occupancy = machine.occupancy_for_pressure(prp)
    return ScheduleQuality(
        length=schedule.length,
        peak_pressure=tuple(sorted(prp.items(), key=lambda kv: kv[0].name)),
        aprp=tuple(sorted(aprp.items(), key=lambda kv: kv[0].name)),
        occupancy=occupancy,
        rp_cost=rp_cost(prp, machine),
    )
