"""Tests for repro.ir.instructions."""

import pytest

from repro.errors import IRError
from repro.ir.instructions import (
    MAX_LATENCY,
    OPCODES,
    Instruction,
    Opcode,
    define_opcode,
    opcode,
    registers_of,
)
from repro.ir.registers import sreg, vreg


class TestOpcode:
    def test_builtin_table_populated(self):
        assert "v_add" in OPCODES
        assert "global_load" in OPCODES

    def test_lookup(self):
        assert opcode("v_add").latency == 1
        assert opcode("global_load").kind == "mem"

    def test_unknown_raises(self):
        with pytest.raises(IRError):
            opcode("no_such_op")

    def test_memory_latencies_exceed_alu(self):
        assert opcode("global_load").latency > opcode("v_add").latency
        assert opcode("flat_load").latency >= opcode("buffer_load").latency

    def test_define_idempotent(self):
        op = define_opcode("v_add", 1, "valu")
        assert op is OPCODES["v_add"]

    def test_redefinition_conflict_raises(self):
        with pytest.raises(IRError):
            define_opcode("v_add", 99, "valu")

    def test_negative_latency_rejected(self):
        with pytest.raises(IRError):
            Opcode("bad", -1)

    def test_latency_above_bound_rejected(self):
        assert Opcode("slowest", MAX_LATENCY).latency == MAX_LATENCY
        with pytest.raises(IRError):
            Opcode("bad", MAX_LATENCY + 1)

    def test_empty_name_rejected(self):
        with pytest.raises(IRError):
            Opcode("", 1)

    def test_custom_opcode(self):
        op = define_opcode("test_custom_xyz", 7, "other")
        assert opcode("test_custom_xyz").latency == 7


class TestInstruction:
    def test_basic(self):
        inst = Instruction(0, opcode("v_add"), defs=(vreg(1),), uses=(vreg(0),))
        assert inst.latency == 1
        assert inst.defines(vreg(1))
        assert inst.reads(vreg(0))
        assert not inst.defines(vreg(0))

    def test_latency_defaults_to_opcode(self):
        inst = Instruction(0, opcode("global_load"), defs=(vreg(0),))
        assert inst.latency == opcode("global_load").latency

    def test_latency_override(self):
        inst = Instruction(0, opcode("v_add"), latency=9)
        assert inst.latency == 9

    def test_label(self):
        assert Instruction(3, opcode("v_add")).label == "i3"
        assert Instruction(3, opcode("v_add"), name="X").label == "X"

    @pytest.mark.parametrize("latency", [MAX_LATENCY + 1, 3_000_000_000, 10**20])
    def test_latency_above_bound_rejected(self, latency):
        with pytest.raises(IRError):
            Instruction(0, opcode("v_add"), latency=latency)

    def test_negative_index_rejected(self):
        with pytest.raises(IRError):
            Instruction(-1, opcode("v_add"))

    def test_duplicate_defs_rejected(self):
        with pytest.raises(IRError):
            Instruction(0, opcode("v_add"), defs=(vreg(1), vreg(1)))

    def test_duplicate_uses_rejected(self):
        with pytest.raises(IRError):
            Instruction(0, opcode("v_add"), uses=(vreg(1), vreg(1)))

    def test_renumbered(self):
        inst = Instruction(0, opcode("v_add"), defs=(vreg(1),), name="A")
        moved = inst.renumbered(5)
        assert moved.index == 5
        assert moved.defs == inst.defs
        assert moved.name == "A"

    def test_str_contains_operands(self):
        inst = Instruction(0, opcode("v_add"), defs=(vreg(2),), uses=(vreg(0), vreg(1)))
        text = str(inst)
        assert "v_add" in text
        assert "defs(v2)" in text
        assert "uses(v0,v1)" in text

    def test_str_shows_nondefault_latency(self):
        inst = Instruction(0, opcode("v_add"), latency=5)
        assert "lat=5" in str(inst)
        assert "lat=" not in str(Instruction(0, opcode("v_add")))

    def test_registers_of(self):
        insts = [
            Instruction(0, opcode("v_add"), defs=(vreg(0),)),
            Instruction(1, opcode("v_add"), defs=(sreg(1),), uses=(vreg(0),)),
        ]
        assert registers_of(insts) == {vreg(0), sreg(1)}
