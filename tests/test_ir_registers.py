"""Tests for repro.ir.registers."""

import copy
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.errors import IRError
from repro.ir.registers import (
    SGPR,
    VGPR,
    RegisterClass,
    VirtualRegister,
    register_class_by_prefix,
    sreg,
    vreg,
)


class TestRegisterClass:
    def test_builtin_classes(self):
        assert VGPR.name == "VGPR"
        assert VGPR.prefix == "v"
        assert SGPR.prefix == "s"

    def test_lookup_by_prefix(self):
        assert register_class_by_prefix("v") is VGPR
        assert register_class_by_prefix("s") is SGPR

    def test_unknown_prefix_raises(self):
        with pytest.raises(IRError):
            register_class_by_prefix("x")

    def test_bad_prefix_rejected(self):
        with pytest.raises(IRError):
            RegisterClass("weird", "ab")
        with pytest.raises(IRError):
            RegisterClass("weird", "1")

    def test_classes_are_ordered(self):
        assert sorted([VGPR, SGPR]) == [SGPR, VGPR]

    def test_str(self):
        assert str(VGPR) == "VGPR"

    @pytest.mark.parametrize("cls", [VGPR, SGPR], ids=str)
    def test_hash_is_the_dataclass_hash(self, cls):
        """The hash is computed once, at construction, and is the value the
        generated dataclass hash gives, so set and dict order do not move."""

        @dataclass(frozen=True)
        class Plain:
            name: str
            prefix: str

        assert hash(cls) == hash(Plain(cls.name, cls.prefix)) == hash((cls.name, cls.prefix))
        assert hash(RegisterClass(cls.name, cls.prefix)) == hash(cls)


class TestVirtualRegister:
    def test_str_roundtrip(self):
        reg = VirtualRegister(VGPR, 12)
        assert str(reg) == "v12"
        assert VirtualRegister.parse("v12") == reg

    def test_parse_sgpr(self):
        assert VirtualRegister.parse("s3") == VirtualRegister(SGPR, 3)

    def test_parse_strips_whitespace(self):
        assert VirtualRegister.parse("  v7 ") == vreg(7)

    @pytest.mark.parametrize("text", ["", "v", "x3", "vv", "v-1", "3"])
    def test_parse_rejects_garbage(self, text):
        with pytest.raises(IRError):
            VirtualRegister.parse(text)

    def test_negative_id_rejected(self):
        with pytest.raises(IRError):
            VirtualRegister(VGPR, -1)

    def test_equality_is_by_value(self):
        assert vreg(1) == vreg(1)
        assert vreg(1) != sreg(1)
        assert vreg(1) != vreg(2)

    def test_usable_in_sets(self):
        assert len({vreg(1), vreg(1), sreg(1)}) == 2

    def test_ordering_is_deterministic(self):
        regs = [vreg(2), sreg(9), vreg(0), sreg(1)]
        assert sorted(regs) == [sreg(1), sreg(9), vreg(0), vreg(2)]

    @given(st.integers(min_value=0, max_value=10**6))
    def test_roundtrip_property(self, ident):
        for make in (vreg, sreg):
            reg = make(ident)
            assert VirtualRegister.parse(str(reg)) == reg

    def test_helpers(self):
        assert vreg(4).reg_class is VGPR
        assert sreg(4).reg_class is SGPR


class TestRegisterHash:
    """The hash is computed once, at construction, and must be the value
    the dataclass would compute, so set and dict order does not move."""

    @given(st.integers(min_value=0, max_value=10**6))
    def test_hash_is_the_dataclass_hash(self, ident):
        for make in (vreg, sreg):
            reg = make(ident)
            assert hash(reg) == hash((reg.reg_class, reg.ident))

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda reg: pickle.loads(pickle.dumps(reg))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_equal_and_hash_alike(self, clone):
        for reg in (vreg(3), sreg(11), VGPR, SGPR):
            twin = clone(reg)
            assert twin == reg
            assert hash(twin) == hash(reg)
            assert twin in {reg}

    def test_unpickling_rederives_the_hash(self):
        """A register or register class pickled by a process with other
        string hashes must hash as this process's do once loaded."""
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "import pickle, sys\n"
            "from repro.ir.registers import SGPR, VGPR, sreg, vreg\n"
            "sys.stdout.buffer.write(pickle.dumps([vreg(3), sreg(7), VGPR, SGPR]))\n"
        )
        here = [vreg(3), sreg(7), VGPR, SGPR]
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            blob = subprocess.run(
                [sys.executable, "-c", code], env=env, check=True, capture_output=True
            ).stdout
            loaded = pickle.loads(blob)
            assert [hash(value) for value in loaded] == [hash(value) for value in here]
            assert all(value in set(loaded) for value in here)

    def test_still_frozen(self):
        reg = vreg(1)
        with pytest.raises(AttributeError):
            reg.ident = 2
        with pytest.raises(AttributeError):
            VGPR.name = "SGPR"
