"""The result of scheduling: a cycle assignment.

A :class:`Schedule` assigns a machine cycle to every instruction of a
region (Section II-A: "The output is a schedule, which is an assignment of
a machine cycle to each instruction"). Cycles with no instruction are
*stalls*. The object is immutable; legality checking lives in
:mod:`repro.schedule.validate` and quality metrics in :mod:`repro.rp.cost`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..errors import ScheduleError
from ..ir.block import SchedulingRegion
from ..ir.registers import RegisterClass


class Schedule:
    """An immutable cycle assignment for one region.

    ``tracked_peak`` is the per-class peak pressure that the producer's
    pressure tracker recorded while issuing ``issued``. The schedule keeps
    it only when ``issued`` is exactly :attr:`order`: a multi-issue cycle
    may pick its instructions out of index order, and :attr:`order` sorts
    them by index, so the peak is then another order's. A kept peak is
    what :func:`repro.rp.evaluate_schedule` reads instead of replaying the
    order. It takes no part in equality.
    """

    __slots__ = ("region", "cycles", "_order", "_length", "_tracked_peak")

    def __init__(
        self,
        region: SchedulingRegion,
        cycles: Sequence[int],
        tracked_peak: Optional[Mapping[RegisterClass, int]] = None,
        issued: Optional[Sequence[int]] = None,
    ):
        if len(cycles) != len(region):
            raise ScheduleError(
                "schedule has %d cycles for %d instructions"
                % (len(cycles), len(region))
            )
        cycle_tuple = tuple(int(c) for c in cycles)
        if any(c < 0 for c in cycle_tuple):
            raise ScheduleError("cycles must be >= 0")
        self.region = region
        self.cycles = cycle_tuple
        self._order: Tuple[int, ...] = tuple(
            index for _cycle, index in sorted(
                (cycle, index) for index, cycle in enumerate(cycle_tuple)
            )
        )
        self._length = max(cycle_tuple) + 1 if cycle_tuple else 0
        carried = tracked_peak is not None and issued is not None and tuple(issued) == self._order
        self._tracked_peak = dict(tracked_peak) if carried else None

    @classmethod
    def from_order(
        cls,
        region: SchedulingRegion,
        order: Sequence[int],
        tracked_peak: Optional[Mapping[RegisterClass, int]] = None,
    ) -> "Schedule":
        """A stall-free schedule issuing ``order`` back to back (one per cycle).

        This is the natural representation for pass 1, where latencies are
        ignored and only the instruction order matters.
        """
        if sorted(order) != list(range(len(region))):
            raise ScheduleError("order must be a permutation of the instructions")
        cycles = [0] * len(region)
        for cycle, index in enumerate(order):
            cycles[index] = cycle
        return cls(region, cycles, tracked_peak, issued=order)

    # -- accessors -----------------------------------------------------------

    @property
    def length(self) -> int:
        """Number of cycles used (the schedule-length objective)."""
        return self._length

    @property
    def order(self) -> Tuple[int, ...]:
        """Instruction indices in issue order (ties broken by index)."""
        return self._order

    @property
    def tracked_peak(self) -> Optional[Dict[RegisterClass, int]]:
        """A copy of the peak the producer tracked, or None (see the class)."""
        return None if self._tracked_peak is None else dict(self._tracked_peak)

    @property
    def num_stalls(self) -> int:
        """Cycles in which nothing issues."""
        used = len(set(self.cycles))
        return self._length - used

    def cycle_of(self, index: int) -> int:
        return self.cycles[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.region == other.region and self.cycles == other.cycles

    def __hash__(self) -> int:
        return hash((self.region, self.cycles))

    def __repr__(self) -> str:
        return "Schedule(%r, length=%d, stalls=%d)" % (
            self.region.name,
            self._length,
            self.num_stalls,
        )
