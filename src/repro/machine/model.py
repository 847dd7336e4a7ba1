"""The scheduler-facing machine model.

Bundles the issue model (single-issue by default, matching the paper's
evaluation) with one occupancy table per register class. Register classes
without a table (none on the built-in targets) do not constrain occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Mapping, NamedTuple, Tuple

import numpy as np

from ..errors import MachineModelError
from ..ir.registers import RegisterClass
from .occupancy import OccupancyTable


class PressureLUTs(NamedTuple):
    """Occupancy / APRP lookup tables, one row per class of
    :meth:`MachineModel.classes`; column = pressure. Pressures at or beyond
    ``width - 1`` must be clamped by the caller (the last column is past
    every table's ``max_pressure``, so it holds occupancy 0)."""

    width: int
    occupancy: np.ndarray
    aprp: np.ndarray


@dataclass(frozen=True)
class MachineModel:
    """A scheduling target.

    ``issue_width`` is the number of instructions issued per cycle; the
    paper's experiments use 1, and all built-in targets follow suit, but the
    schedulers honor larger widths.
    """

    name: str
    occupancy_tables: Mapping[RegisterClass, OccupancyTable]
    issue_width: int = 1
    wavefront_size: int = 64

    def __post_init__(self):
        if self.issue_width < 1:
            raise MachineModelError("issue_width must be >= 1")
        if self.wavefront_size < 1:
            raise MachineModelError("wavefront_size must be >= 1")
        if not self.occupancy_tables:
            raise MachineModelError("a machine model needs occupancy tables")
        object.__setattr__(self, "occupancy_tables", dict(self.occupancy_tables))

    @property
    def max_occupancy(self) -> int:
        return min(t.max_occupancy for t in self.occupancy_tables.values())

    def table_for(self, cls: RegisterClass) -> OccupancyTable:
        try:
            return self.occupancy_tables[cls]
        except KeyError:
            raise MachineModelError(
                "no occupancy table for register class %s on %s" % (cls, self.name)
            ) from None

    def occupancy_for_pressure(self, pressure: Mapping[RegisterClass, int]) -> int:
        """Kernel occupancy: the minimum over all constrained register files."""
        occ = self.max_occupancy
        for cls, table in self.occupancy_tables.items():
            occ = min(occ, table.occupancy(pressure.get(cls, 0)))
        return occ

    def aprp(self, pressure: Mapping[RegisterClass, int]) -> Dict[RegisterClass, int]:
        """Adjusted PRP of each constrained class (Section II-A)."""
        return {
            cls: table.aprp(pressure.get(cls, 0))
            for cls, table in self.occupancy_tables.items()
        }

    def classes(self) -> Tuple[RegisterClass, ...]:
        return tuple(self.occupancy_tables)

    @cached_property
    def pressure_luts(self) -> PressureLUTs:
        """The per-class tables as read-only arrays, built once per model."""
        classes = self.classes()
        width = max(self.table_for(cls).max_pressure for cls in classes) + 2
        occ = np.zeros((len(classes), width), dtype=np.int32)
        aprp = np.zeros((len(classes), width), dtype=np.int32)
        for ci, cls in enumerate(classes):
            table = self.table_for(cls)
            for p in range(width):
                occ[ci, p] = table.occupancy(p)
                aprp[ci, p] = table.aprp(p)
        occ.setflags(write=False)
        aprp.setflags(write=False)
        return PressureLUTs(width, occ, aprp)
