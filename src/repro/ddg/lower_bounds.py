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

from collections import Counter
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

    One pass over the instructions serves every class: a use is live
    through its instruction when it is live-out or read again later, which
    the precomputed index of each register's last use answers in O(1).
    """
    classes = region.register_classes()
    live_out = region.live_out
    last_use: Dict[VirtualRegister, int] = {}
    for inst in region:
        for reg in inst.uses:
            last_use[reg] = inst.index
    bounds = {cls: 0 for cls in classes}

    def raise_to(counts: Dict[RegisterClass, int]) -> None:
        for cls, count in counts.items():
            if count > bounds[cls]:
                bounds[cls] = count

    raise_to(Counter(reg.reg_class for reg in region.live_in))
    raise_to(Counter(reg.reg_class for reg in live_out))
    for inst in region:
        index = inst.index
        uses: Dict[RegisterClass, int] = {}
        # Just after `inst` issues its defs are live together with any of
        # its uses that still have a later consumer (a successor reads
        # them) or are live-out.
        after: Dict[RegisterClass, int] = {}
        for reg in inst.defs:
            after[reg.reg_class] = after.get(reg.reg_class, 0) + 1
        for reg in inst.uses:
            cls = reg.reg_class
            uses[cls] = uses.get(cls, 0) + 1
            if reg in live_out or last_use[reg] > index:
                after[cls] = after.get(cls, 0) + 1
        raise_to(uses)
        raise_to(after)
    return bounds


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
