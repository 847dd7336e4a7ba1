"""A compact virtual-register IR for pre-allocation instruction scheduling.

The IR carries exactly what the RP-aware scheduling problem consumes: each
instruction has an opcode, a latency, a *Def* set and a *Use* set of virtual
registers, and registers belong to register classes (VGPR / SGPR on the AMD
target). A :class:`~repro.ir.block.SchedulingRegion` is the scheduler's unit
of work, matching an LLVM scheduling region (a basic block or part of one).
"""

from .registers import RegisterClass, VirtualRegister, VGPR, SGPR, register_class_by_prefix
from .instructions import MAX_LATENCY, Opcode, Instruction, OPCODES, opcode, define_opcode
from .block import SchedulingRegion
from .builder import RegionBuilder
from .printer import format_region, format_schedule
from .parser import parse_region

__all__ = [
    "RegisterClass",
    "VirtualRegister",
    "VGPR",
    "SGPR",
    "register_class_by_prefix",
    "MAX_LATENCY",
    "Opcode",
    "Instruction",
    "OPCODES",
    "opcode",
    "define_opcode",
    "SchedulingRegion",
    "RegionBuilder",
    "format_region",
    "format_schedule",
    "parse_region",
]
