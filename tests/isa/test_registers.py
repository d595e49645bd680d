"""Tests for the architectural register namespace."""

import pytest

from repro.isa.registers import (
    GLOBAL_POINTER,
    INT_ZERO,
    FP_ZERO,
    NUM_FP_REGS,
    NUM_INT_REGS,
    STACK_POINTER,
    Register,
    RegisterClass,
    all_registers,
    allocatable_registers,
    fp_reg,
    int_reg,
    reg_from_uid,
)


class TestInterning:
    def test_int_registers_are_interned(self):
        assert int_reg(5) is int_reg(5)

    def test_fp_registers_are_interned(self):
        assert fp_reg(31) is fp_reg(31)

    def test_int_and_fp_distinct(self):
        assert int_reg(3) is not fp_reg(3)
        assert int_reg(3) != fp_reg(3)

    def test_reg_from_uid_round_trip(self):
        for reg in all_registers():
            assert reg_from_uid(reg.uid) is reg


class TestUids:
    def test_int_uids_dense_from_zero(self):
        assert [int_reg(i).uid for i in range(4)] == [0, 1, 2, 3]

    def test_fp_uids_offset_by_int_count(self):
        assert fp_reg(0).uid == NUM_INT_REGS
        assert fp_reg(31).uid == NUM_INT_REGS + 31

    def test_all_uids_unique(self):
        uids = [r.uid for r in all_registers()]
        assert len(uids) == len(set(uids)) == NUM_INT_REGS + NUM_FP_REGS


class TestNamesAndParsing:
    def test_names(self):
        assert int_reg(7).name == "r7"
        assert fp_reg(12).name == "f12"


class TestSpecialRegisters:
    def test_zero_registers(self):
        assert INT_ZERO.is_zero
        assert FP_ZERO.is_zero
        assert not int_reg(0).is_zero

    def test_stack_pointer_is_r30(self):
        assert STACK_POINTER is int_reg(30)
        assert STACK_POINTER.is_stack_pointer
        assert not STACK_POINTER.is_global_pointer

    def test_global_pointer_is_r29(self):
        assert GLOBAL_POINTER is int_reg(29)
        assert GLOBAL_POINTER.is_global_pointer

    def test_fp_register_is_never_stack_pointer(self):
        assert not fp_reg(30).is_stack_pointer
        assert not fp_reg(29).is_global_pointer


class TestAllocatablePools:
    def test_int_pool_excludes_reserved(self):
        pool = allocatable_registers(RegisterClass.INT)
        assert STACK_POINTER not in pool
        assert GLOBAL_POINTER not in pool
        assert INT_ZERO not in pool
        assert len(pool) == NUM_INT_REGS - 3

    def test_fp_pool_excludes_only_zero(self):
        pool = allocatable_registers(RegisterClass.FP)
        assert FP_ZERO not in pool
        assert len(pool) == NUM_FP_REGS - 1


class TestOrderingAndHashing:
    def test_ordering_by_uid(self):
        assert int_reg(1) < int_reg(2) < fp_reg(0)

    def test_usable_as_dict_keys(self):
        d = {int_reg(4): "a", fp_reg(4): "b"}
        assert d[int_reg(4)] == "a"
        assert d[fp_reg(4)] == "b"

    def test_construction_rejects_bad_index(self):
        with pytest.raises(ValueError):
            Register(RegisterClass.INT, 32)
        with pytest.raises(ValueError):
            Register(RegisterClass.FP, -1)
