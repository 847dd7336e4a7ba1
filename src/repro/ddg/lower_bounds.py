"""Lower bounds used to gate and terminate the ACO search.

The pipeline (Section VI-A of the paper) compares every heuristic schedule
against a precomputed lower bound: if the heuristic already meets the LB the
schedule is provably optimal and ACO is skipped; during the search, hitting
the LB terminates the kernel early.

* **Schedule length LB** — ``max(critical path length, n)`` on a
  single-issue machine (``n`` instructions need ``n`` issue slots; no
  schedule beats the latency-weighted critical path).
* **Register-pressure LB (per class)** — the maximum of
  ``|live_in|``, ``|live_out|``, ``max_i |uses(i)|`` and
  ``max_i |defs(i) plus the live-through uses of i|``: whichever cycle
  instruction ``i`` issues in, every register it reads is live just before
  it and every register it writes is live just after, so these counts are
  unavoidable. These are sound but not tight; a tighter bound would only
  make ACO run *less* often, so soundness is what matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.block import SchedulingRegion
from ..ir.registers import RegisterClass, VirtualRegister
from .analysis import critical_path_info
from .graph import DDG


def length_lower_bound(ddg: DDG) -> int:
    """Schedule-length LB for a single-issue machine."""
    info = critical_path_info(ddg)
    return max(info.critical_path_length, ddg.num_instructions)


def pressure_lower_bounds(region: SchedulingRegion) -> Dict[RegisterClass, int]:
    """A sound per-class PRP lower bound (see module docstring).

    One pass over the instructions serves every class, counting into short
    lists at each class's dense index. A use is live through its
    instruction when the register is read again later or is live-out (a
    live-out register's last reader is then past the end).
    """
    classes = region.register_classes()
    width = len(classes)
    index_of = {cls: k for k, cls in enumerate(classes)}
    last_read: Dict[VirtualRegister, int] = {}
    for inst in region:
        for reg in inst.uses:
            last_read[reg] = inst.index
    for reg in region.live_out:
        last_read[reg] = len(region)
    bounds = [0] * width
    for regs in (region.live_in, region.live_out):
        counts = [0] * width
        for reg in regs:
            counts[index_of[reg.reg_class]] += 1
        bounds = list(map(max, bounds, counts))
    for inst in region:
        index = inst.index
        uses = [0] * width
        # Just after `inst` issues its defs are live together with any of
        # its uses that still have a later consumer (a successor reads
        # them) or are live-out.
        after = [0] * width
        for reg in inst.defs:
            after[index_of[reg.reg_class]] += 1
        for reg in inst.uses:
            k = index_of[reg.reg_class]
            uses[k] += 1
            if last_read[reg] > index:
                after[k] += 1
        bounds = list(map(max, bounds, uses, after))
    return dict(zip(classes, bounds))


@dataclass(frozen=True)
class RegionBounds:
    """All LBs of one region, computed once and shared by both passes."""

    length: int
    pressure: Tuple[Tuple[RegisterClass, int], ...]

    def pressure_of(self, cls: RegisterClass) -> int:
        for klass, bound in self.pressure:
            if klass is cls:
                return bound
        return 0

    @property
    def pressure_dict(self) -> Dict[RegisterClass, int]:
        return dict(self.pressure)


def region_bounds(ddg: DDG) -> RegionBounds:
    """Compute :class:`RegionBounds` for the region of ``ddg``."""
    pressure = pressure_lower_bounds(ddg.region)
    return RegionBounds(
        length=length_lower_bound(ddg),
        pressure=tuple(sorted(pressure.items(), key=lambda kv: kv[0].name)),
    )
