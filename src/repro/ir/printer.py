"""Textual rendering of regions and schedules.

The region format round-trips through :func:`repro.ir.parser.parse_region`::

    region figure1
    live_out: v7
    A: op3 defs(v1) lat=3
    B: op1 defs(v2)
    ...
    end
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .block import SchedulingRegion, upward_exposed_uses

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..schedule.schedule import Schedule


def format_region(region: SchedulingRegion) -> str:
    """Serialize a region to the textual format."""
    lines = ["region %s" % region.name]
    explicit_live_in = region.live_in - upward_exposed_uses(region)
    if explicit_live_in:
        lines.append("live_in: %s" % ", ".join(str(r) for r in sorted(explicit_live_in)))
    if region.live_out:
        lines.append("live_out: %s" % ", ".join(str(r) for r in sorted(region.live_out)))
    for inst in region:
        lines.append(str(inst))
    lines.append("end")
    return "\n".join(lines) + "\n"


def format_schedule(schedule: "Schedule") -> str:
    """Render a schedule cycle by cycle, marking stall cycles.

    Matches the presentation of the paper's Figure 1: one line per cycle,
    ``Stall`` for cycles with no instruction issued.
    """
    region = schedule.region
    by_cycle = {}
    for index, cycle in enumerate(schedule.cycles):
        by_cycle.setdefault(cycle, []).append(index)
    lines = ["schedule of %s (length %d)" % (region.name, schedule.length)]
    for cycle in range(schedule.length):
        issued = by_cycle.get(cycle, [])
        if issued:
            text = ", ".join(region[i].label for i in issued)
        else:
            text = "Stall"
        lines.append("cycle %3d: %s" % (cycle, text))
    return "\n".join(lines) + "\n"
