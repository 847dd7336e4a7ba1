"""Opcodes and instructions.

Opcodes carry the default latency used when building dependence graphs; a
latency is the number of cycles that must elapse between issuing a producer
and issuing a dependent consumer (1 = back-to-back is legal). The built-in
table is a plausible subset of the GCN/Vega ISA: single-cycle VALU/SALU ops,
medium-latency transcendentals and LDS accesses, long-latency global memory
loads. The scheduling algorithms never consult the table directly — an
:class:`Instruction` snapshots its latency — so suites with custom opcodes
work the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..errors import IRError
from .registers import VirtualRegister

#: Largest latency an opcode or instruction may carry, in cycles. The
#: built-in table, the suite generators and the tests top out at 24; this
#: bound sits far above that, yet a schedule that waits only for latencies
#: spans at most n * (MAX_LATENCY + 1) cycles for n instructions, so the
#: device image's int32 cycle tables cannot overflow and the verifier's
#: per-cycle arrays stay proportional to the region.
MAX_LATENCY = 4096


@dataclass(frozen=True)
class Opcode:
    """An operation kind: a name, a default latency and a coarse category.

    ``kind`` is one of ``"valu"``, ``"salu"``, ``"mem"``, ``"lds"``,
    ``"trans"``, ``"branch"`` or ``"other"``; the suite generator uses it to
    control the memory/ALU mix of synthetic regions.
    """

    name: str
    latency: int
    kind: str = "valu"

    def __post_init__(self):
        if not 0 <= self.latency <= MAX_LATENCY:
            raise IRError(
                "latency must be in [0, %d], got %d" % (MAX_LATENCY, self.latency)
            )
        if not self.name:
            raise IRError("opcode name must be non-empty")


#: Built-in opcode table (name -> Opcode).
OPCODES: Dict[str, Opcode] = {}


def define_opcode(name: str, latency: int, kind: str = "valu") -> Opcode:
    """Register a new opcode in the global table and return it.

    Redefining an existing name with identical attributes is a no-op;
    redefining it differently is an error (it would silently change suites).
    """
    op = Opcode(name, latency, kind)
    existing = OPCODES.get(name)
    if existing is not None and existing != op:
        raise IRError("opcode %r already defined with different attributes" % name)
    OPCODES[name] = op
    return op


def opcode(name: str) -> Opcode:
    """Look up a built-in opcode by name."""
    try:
        return OPCODES[name]
    except KeyError:
        raise IRError("unknown opcode %r" % name) from None


def _populate_builtin_opcodes() -> None:
    valu_1 = [
        "v_mov", "v_add", "v_sub", "v_mul_lo", "v_and", "v_or", "v_xor",
        "v_lshl", "v_lshr", "v_min", "v_max", "v_cmp", "v_cndmask", "v_bfe",
    ]
    for name in valu_1:
        define_opcode(name, 1, "valu")
    for name in ["v_add_f32", "v_mul_f32", "v_fma_f32", "v_mac_f32", "v_sad"]:
        define_opcode(name, 2, "valu")
    for name in ["v_rcp_f32", "v_sqrt_f32", "v_exp_f32", "v_log_f32", "v_sin_f32"]:
        define_opcode(name, 8, "trans")
    for name in ["s_mov", "s_add", "s_and", "s_lshl", "s_cmp", "s_cselect"]:
        define_opcode(name, 1, "salu")
    define_opcode("s_load_dword", 12, "mem")
    define_opcode("ds_read", 6, "lds")
    define_opcode("ds_write", 1, "lds")
    define_opcode("global_load", 20, "mem")
    define_opcode("global_store", 1, "mem")
    define_opcode("buffer_load", 20, "mem")
    define_opcode("buffer_store", 1, "mem")
    define_opcode("flat_load", 24, "mem")
    define_opcode("s_branch", 1, "branch")
    # A generic opcode family for tests and hand-written examples.
    define_opcode("op0", 1, "other")
    define_opcode("op1", 1, "other")
    define_opcode("op2", 2, "other")
    define_opcode("op3", 3, "other")
    define_opcode("op5", 5, "other")


_populate_builtin_opcodes()


@dataclass(frozen=True)
class Instruction:
    """One instruction of a scheduling region.

    ``index`` is the instruction's position in the region's original
    (program) order; the dependence graph, the schedulers and the pheromone
    table all identify instructions by this index. ``defs`` and ``uses`` are
    the *Def* and *Use* sets of Section II-A. ``latency`` defaults to the
    opcode's latency but can be overridden per instruction (LLVM itineraries
    do the same).
    """

    index: int
    op: Opcode
    defs: Tuple[VirtualRegister, ...] = ()
    uses: Tuple[VirtualRegister, ...] = ()
    latency: int = -1  # -1 means "use the opcode default"
    name: str = ""

    def __post_init__(self):
        if self.index < 0:
            raise IRError("instruction index must be >= 0")
        if self.latency == -1:
            object.__setattr__(self, "latency", self.op.latency)
        if not 0 <= self.latency <= MAX_LATENCY:
            raise IRError(
                "instruction latency must be in [0, %d], got %d"
                % (MAX_LATENCY, self.latency)
            )
        if len(set(self.defs)) != len(self.defs):
            raise IRError("duplicate register in Def set of %s" % self.label)
        if len(set(self.uses)) != len(self.uses):
            raise IRError("duplicate register in Use set of %s" % self.label)

    @property
    def label(self) -> str:
        """Display name: the explicit name if given, else ``i<index>``."""
        return self.name or ("i%d" % self.index)

    def defines(self, reg: VirtualRegister) -> bool:
        return reg in self.defs

    def reads(self, reg: VirtualRegister) -> bool:
        return reg in self.uses

    def renumbered(self, new_index: int) -> "Instruction":
        """A copy of this instruction at a different program-order index."""
        return Instruction(new_index, self.op, self.defs, self.uses, self.latency, self.name)

    def __str__(self) -> str:
        parts = [self.label + ":", self.op.name]
        if self.defs:
            parts.append("defs(%s)" % ",".join(str(r) for r in self.defs))
        if self.uses:
            parts.append("uses(%s)" % ",".join(str(r) for r in self.uses))
        if self.latency != self.op.latency:
            parts.append("lat=%d" % self.latency)
        return " ".join(parts)


def registers_of(instructions: Iterable[Instruction]):
    """The set of all virtual registers mentioned by ``instructions``."""
    regs = set()
    for inst in instructions:
        regs.update(inst.defs)
        regs.update(inst.uses)
    return regs
