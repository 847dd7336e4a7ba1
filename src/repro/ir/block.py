"""Scheduling regions.

A :class:`SchedulingRegion` is the unit of work handed to the schedulers —
the analogue of an LLVM scheduling region (a basic block or a slice of one).
It owns an immutable instruction sequence in original program order plus the
boundary liveness information needed to compute register pressure:

* ``live_in``  — registers live on entry (their ranges are open at cycle 0),
* ``live_out`` — registers live on exit (their ranges never close inside the
  region, so their pressure contribution cannot be scheduled away).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..errors import IRError
from .instructions import Instruction
from .registers import RegisterClass, VirtualRegister


def upward_exposed_uses(instructions: Iterable[Instruction]) -> FrozenSet[VirtualRegister]:
    """The registers read before any definition in ``instructions``.

    They must be live on entry to a region of these instructions.
    """
    exposed = set()
    defined_so_far = set()
    for inst in instructions:
        for reg in inst.uses:
            if reg not in defined_so_far:
                exposed.add(reg)
        defined_so_far.update(inst.defs)
    return frozenset(exposed)


def _register_sort_key(reg: VirtualRegister) -> Tuple[str, str, int]:
    return (reg.reg_class.name, reg.reg_class.prefix, reg.ident)


class SchedulingRegion:
    """An immutable scheduling region.

    Instructions must be indexed 0..n-1 in original order. Use
    :class:`~repro.ir.builder.RegionBuilder` to construct regions
    conveniently.
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        name: str = "region",
        live_in: Optional[Iterable[VirtualRegister]] = None,
        live_out: Optional[Iterable[VirtualRegister]] = None,
    ):
        insts = tuple(instructions)
        if not insts:
            raise IRError("a scheduling region must contain at least one instruction")
        for position, inst in enumerate(insts):
            if inst.index != position:
                raise IRError(
                    "instruction at position %d has index %d; regions must be "
                    "indexed contiguously from 0" % (position, inst.index)
                )
        self._instructions: Tuple[Instruction, ...] = insts
        self.name = name

        defined = set()
        used = set()
        for inst in insts:
            defined.update(inst.defs)
            used.update(inst.uses)
        # Registers used before any definition in the region must be live-in.
        upward_exposed = upward_exposed_uses(insts)
        if live_in is None:
            self.live_in: FrozenSet[VirtualRegister] = upward_exposed
        else:
            self.live_in = frozenset(live_in)
            missing = upward_exposed - self.live_in
            if missing:
                raise IRError(
                    "registers %s are used before definition but not live-in"
                    % sorted(str(r) for r in missing)
                )
        self.live_out: FrozenSet[VirtualRegister] = frozenset(live_out or ())
        unknown = self.live_out - (defined | self.live_in)
        if unknown:
            raise IRError(
                "live-out registers %s are neither defined nor live-in"
                % sorted(str(r) for r in unknown)
            )
        self._defined = frozenset(defined)
        self._used = frozenset(used)
        self._register_classes: Optional[Tuple[RegisterClass, ...]] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return self._instructions

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self):
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    @property
    def size(self) -> int:
        """Number of instructions (the region-size statistic of the paper)."""
        return len(self._instructions)

    @property
    def defined_registers(self) -> FrozenSet[VirtualRegister]:
        return self._defined

    @property
    def used_registers(self) -> FrozenSet[VirtualRegister]:
        return self._used

    @property
    def all_registers(self) -> FrozenSet[VirtualRegister]:
        return self._defined | self._used | self.live_in | self.live_out

    def register_classes(self) -> Tuple[RegisterClass, ...]:
        """The register classes that actually occur, in a stable order.

        Computed on first use and cached: the region is immutable, and
        every pressure tracker over it asks again.
        """
        if self._register_classes is None:
            seen: Dict[RegisterClass, None] = {}
            # The key is the registers' own (class, id) order, spelled out
            # so the sort compares plain tuples.
            for reg in sorted(self.all_registers, key=_register_sort_key):
                seen.setdefault(reg.reg_class, None)
            self._register_classes = tuple(seen)
        return self._register_classes

    def definer_of(self, reg: VirtualRegister) -> Optional[Instruction]:
        """The (unique in well-formed SSA-ish regions) last definer, or None."""
        result = None
        for inst in self._instructions:
            if inst.defines(reg):
                result = inst
        return result

    def users_of(self, reg: VirtualRegister) -> Tuple[Instruction, ...]:
        return tuple(inst for inst in self._instructions if inst.reads(reg))

    def __repr__(self) -> str:
        return "SchedulingRegion(%r, %d instructions)" % (self.name, len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchedulingRegion):
            return NotImplemented
        return (
            self._instructions == other._instructions
            and self.live_in == other.live_in
            and self.live_out == other.live_out
        )

    def __hash__(self) -> int:
        return hash((self._instructions, self.live_in, self.live_out))
