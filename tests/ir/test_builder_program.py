"""Tests for the program builder and IL program container."""

import pytest

from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegisterClass


class TestValues:
    def test_value_reuse_by_name(self):
        b = ProgramBuilder("p")
        assert b.value("x") is b.value("x")

    def test_fp_value_class(self):
        b = ProgramBuilder("p")
        assert b.fp_value("f").rclass is RegisterClass.FP

    def test_stack_pointer_flag(self):
        b = ProgramBuilder("p")
        sp = b.stack_pointer_value()
        assert sp.is_stack_pointer
        assert b.program.stack_pointer is sp

    def test_global_pointer_flag(self):
        b = ProgramBuilder("p")
        gp = b.global_pointer_value()
        assert gp.is_global_pointer
        assert b.program.global_pointer is gp

    def test_fresh_names_unique(self):
        b = ProgramBuilder("p")
        v1 = b.program.new_value()
        v2 = b.program.new_value()
        assert v1.name != v2.name

    def test_duplicate_explicit_names_disambiguated(self):
        b = ProgramBuilder("p")
        v1 = b.program.new_value("a")
        v2 = b.program.new_value("a")
        assert v1.name != v2.name


class TestEmission:
    def test_op_writes_dest_with_class_from_opcode(self):
        b = ProgramBuilder("p")
        b.block("b0")
        dest = b.op(Opcode.ADDT, "facc", "facc", "facc")
        assert dest.rclass is RegisterClass.FP

    def test_load_store_streams_recorded(self):
        b = ProgramBuilder("p")
        b.block("b0")
        base = b.value("base")
        b.load("x", base, stream="arr")
        b.store("x", base, stream="arr")
        load, store = b.current.instructions
        assert load.mem_stream == "arr"
        assert store.mem_stream == "arr"
        assert store.dest is None

    def test_branch_requires_conditional_opcode(self):
        b = ProgramBuilder("p")
        b.block("b0")
        with pytest.raises(ValueError):
            b.branch(Opcode.BR, "x", "b0")

    def test_branch_model_annotation(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "x", imm=1)
        b.branch(Opcode.BNE, "x", "b0", model="m1")
        assert b.current.terminator.branch_model == "m1"

    def test_emit_without_block_raises(self):
        b = ProgramBuilder("p")
        with pytest.raises(ValueError):
            b.op(Opcode.LDA, "x", imm=0)


class TestProgram:
    def test_build_assigns_uids_in_layout_order(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "x", imm=0)
        b.op(Opcode.LDA, "y", imm=1)
        b.block("b1")
        b.op(Opcode.ADDQ, "z", "x", "y")
        prog = b.build()
        uids = [i.uid for i in prog.all_instructions()]
        assert uids == [0, 1, 2]

    def test_block_of_uid(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "x", imm=0)
        b.block("b1")
        b.op(Opcode.ADDQ, "z", "x", "x")
        prog = b.build()
        mapping = prog.block_of_uid()
        assert mapping[0] == "b0"
        assert mapping[1] == "b1"

    def test_instruction_count(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "x", imm=0)
        b.ret()
        prog = b.build()
        assert prog.instruction_count() == 2

    def test_format_lists_blocks(self):
        b = ProgramBuilder("p")
        b.block("hello")
        b.op(Opcode.LDA, "x", imm=0)
        text = b.build().format()
        assert "hello" in text
        assert "lda" in text
