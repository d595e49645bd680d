"""Tests for web construction (live ranges)."""

from repro.compiler.webs import (
    build_live_ranges,
    compute_spill_weights,
    designate_global_candidates,
)
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import ILInstruction
from repro.isa.opcodes import Opcode


def build_two_web_program():
    """`t` has two independent webs: (def0,use0) and (def1,use1)."""
    b = ProgramBuilder("p")
    b.block("b0")
    t = b.value("t")
    b.emit(ILInstruction(Opcode.LDA, dest=t, imm=1))          # def web 0
    b.emit(ILInstruction(Opcode.ADDQ, dest=b.value("a"), srcs=(t, t)))  # use web 0
    b.emit(ILInstruction(Opcode.LDA, dest=t, imm=2))          # def web 1 (kills)
    b.emit(ILInstruction(Opcode.ADDQ, dest=b.value("c"), srcs=(t,)))    # use web 1
    return b.build()


class TestWebSplitting:
    def test_two_webs_for_disconnected_defs(self):
        prog = build_two_web_program()
        lrs = build_live_ranges(prog)
        t = prog.value_named("t")
        t_ranges = [lr for lr in lrs if lr.value is t]
        assert len(t_ranges) == 2

    def test_webs_have_disjoint_references(self):
        prog = build_two_web_program()
        lrs = build_live_ranges(prog)
        t = prog.value_named("t")
        r0, r1 = [lr for lr in lrs if lr.value is t]
        assert not (r0.reference_uids & r1.reference_uids)

    def test_merged_web_across_control_flow(self):
        # Defs on both arms of a diamond reaching a common use merge.
        b = ProgramBuilder("p")
        b.block("entry")
        cond = b.op(Opcode.LDA, "cond", imm=1)
        b.branch(Opcode.BNE, cond, "right")
        b.block("left")
        b.op(Opcode.LDA, "g", imm=1)
        b.jump("join")
        b.block("right")
        b.op(Opcode.LDA, "g", imm=2)
        b.block("join")
        b.op(Opcode.ADDQ, "use", "g", "g")
        prog = b.build()
        lrs = build_live_ranges(prog)
        g = prog.value_named("g")
        g_ranges = [lr for lr in lrs if lr.value is g]
        assert len(g_ranges) == 1
        assert len(g_ranges[0].def_uids) == 2

    def test_loop_carried_web_is_single(self):
        b = ProgramBuilder("p")
        b.block("pre")
        b.op(Opcode.LDA, "acc", imm=0)
        b.block("body")
        b.op(Opcode.ADDQ, "acc", "acc", "acc")
        b.branch(Opcode.BNE, "acc", "body")
        prog = b.build()
        lrs = build_live_ranges(prog)
        acc = prog.value_named("acc")
        assert len([lr for lr in lrs if lr.value is acc]) == 1


class TestMaps:
    def test_def_and_use_maps_resolve(self):
        prog = build_two_web_program()
        lrs = build_live_ranges(prog)
        t = prog.value_named("t")
        instrs = list(prog.all_instructions())
        web0 = lrs.def_map[(instrs[0].uid, t)]
        assert lrs.use_map[(instrs[1].uid, t)] is web0
        web1 = lrs.def_map[(instrs[2].uid, t)]
        assert lrs.use_map[(instrs[3].uid, t)] is web1
        assert web0 is not web1

    def test_entry_live_value_gets_a_range(self):
        # The stack pointer is never defined but is used: it still needs a web.
        b = ProgramBuilder("p")
        sp = b.stack_pointer_value()
        b.block("b0")
        b.load("x", sp)
        prog = b.build()
        lrs = build_live_ranges(prog)
        sp_ranges = [lr for lr in lrs if lr.value is sp]
        assert len(sp_ranges) == 1
        assert not sp_ranges[0].def_uids

    def test_range_named_lookup(self):
        prog = build_two_web_program()
        lrs = build_live_ranges(prog)
        assert lrs.range_named("a") is not None
        assert lrs.range_named("missing") is None


class TestDesignation:
    def test_sp_gp_are_global_candidates(self):
        b = ProgramBuilder("p")
        sp = b.stack_pointer_value()
        gp = b.global_pointer_value()
        b.block("b0")
        b.load("x", sp)
        b.load("y", gp)
        prog = b.build()
        lrs = build_live_ranges(prog)
        designate_global_candidates(lrs)
        for lr in lrs:
            expected = lr.value in (sp, gp)
            assert lr.global_candidate == expected

    def test_extra_values_widen_global_set(self):
        prog = build_two_web_program()
        lrs = build_live_ranges(prog)
        a = prog.value_named("a")
        designate_global_candidates(lrs, extra_values=[a])
        assert all(lr.global_candidate for lr in lrs if lr.value is a)

    def test_local_and_global_partitions(self):
        b = ProgramBuilder("p")
        sp = b.stack_pointer_value()
        b.block("b0")
        b.load("x", sp)
        prog = b.build()
        lrs = build_live_ranges(prog)
        designate_global_candidates(lrs)
        assert len([lr for lr in lrs if lr.global_candidate]) == 1
        assert len(lrs.local_candidates()) == len(lrs) - 1


class TestSpillWeights:
    def test_weights_scale_with_profile(self):
        b = ProgramBuilder("p")
        b.block("cold", count=1)
        b.op(Opcode.LDA, "x", imm=1)
        b.block("hot", count=1000)
        b.op(Opcode.ADDQ, "y", "x", "x")
        prog = b.build()
        lrs = build_live_ranges(prog)
        compute_spill_weights(prog, lrs)
        x = lrs.range_named("x")
        y = lrs.range_named("y")
        assert x.spill_weight > 1000  # def in cold + use in hot
        assert y.spill_weight == 1000
