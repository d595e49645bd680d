"""Tests for dataflow liveness analysis."""

from repro.compiler.liveness import LivenessInfo
from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode


def loop_program():
    """x defined before a loop that accumulates into acc and reads x."""
    b = ProgramBuilder("loop")
    b.block("pre")
    x = b.op(Opcode.LDA, "x", imm=1)
    acc = b.op(Opcode.LDA, "acc", imm=0)
    b.block("body")
    b.op(Opcode.ADDQ, acc, acc, x)
    b.branch(Opcode.BNE, acc, "body")
    b.block("post")
    b.op(Opcode.ADDQ, "out", acc, acc)
    b.ret()
    return b.build()


class TestStraightLine:
    def test_dead_value_not_live_out(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "dead", imm=1)
        b.block("b1")
        b.op(Opcode.LDA, "x", imm=2)
        prog = b.build()
        info = LivenessInfo(prog)
        assert prog.value_named("dead") not in info.live_out("b0")

    def test_used_value_live_across_block(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "x", imm=1)
        b.block("b1")
        b.op(Opcode.ADDQ, "y", "x", "x")
        prog = b.build()
        info = LivenessInfo(prog)
        x = prog.value_named("x")
        assert x in info.live_out("b0")
        assert x in info.live_in("b1")


class TestLoops:
    def test_loop_invariant_live_around_loop(self):
        prog = loop_program()
        info = LivenessInfo(prog)
        x = prog.value_named("x")
        # x is read every iteration, so it is live into and out of the body.
        assert x in info.live_in("body")
        assert x in info.live_out("body")

    def test_accumulator_live_out_of_loop(self):
        prog = loop_program()
        info = LivenessInfo(prog)
        acc = prog.value_named("acc")
        assert acc in info.live_out("body")
        assert acc in info.live_in("post")

    def test_result_dead_at_exit(self):
        prog = loop_program()
        info = LivenessInfo(prog)
        assert prog.value_named("out") not in info.live_out("post")


class TestPerInstruction:
    def test_diamond_merges_liveness(self):
        b = ProgramBuilder("p")
        b.block("entry")
        b.op(Opcode.LDA, "x", imm=1)
        b.op(Opcode.LDA, "y", imm=2)
        b.branch(Opcode.BNE, "x", "right")
        b.block("left")
        b.op(Opcode.ADDQ, "z", "x", "x")
        b.jump("join")
        b.block("right")
        b.op(Opcode.ADDQ, "z2", "y", "y")
        b.block("join")
        b.ret()
        prog = b.build()
        info = LivenessInfo(prog)
        # Both x and y must be live out of entry: each side uses one.
        assert prog.value_named("x") in info.live_out("entry")
        assert prog.value_named("y") in info.live_out("entry")
        # y is not live into the left arm.
        assert prog.value_named("y") not in info.live_in("left")
