"""Tests for basic-block profiling."""

import pytest

from repro.compiler.passes import optimize_program
from repro.compiler.pipeline import CompilerOptions
from repro.compiler.profiling import profile_analytically, profile_by_walk
from repro.compiler.scheduling import schedule_program
from repro.errors import CompileError
from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode
from repro.workloads.kernels import KERNELS
from repro.workloads.spec92 import SPEC92


def loop_program(back_prob=0.9):
    b = ProgramBuilder("loop")
    b.block("pre")
    b.op(Opcode.LDA, "acc", imm=0)
    b.block("body")
    b.op(Opcode.ADDQ, "acc", "acc", "acc")
    b.branch(Opcode.BNE, "acc", "body")
    b.block("post")
    b.ret()
    prog = b.build()
    prog.cfg.block("body").set_successors(["body", "post"], [back_prob, 1 - back_prob])
    return prog


class TestAnalytic:
    def test_loop_count_matches_geometric_mean(self):
        prog = loop_program(0.9)
        counts = profile_analytically(prog, write_counts=False)
        # Visit count of the body = 1 / (1 - 0.9) = 10 per entry.
        assert counts["body"] == pytest.approx(10.0, rel=1e-6)

    def test_entry_count_is_one(self):
        prog = loop_program()
        counts = profile_analytically(prog, write_counts=False)
        assert counts["pre"] == pytest.approx(1.0)

    def test_counts_written_and_scaled(self):
        prog = loop_program(0.5)
        profile_analytically(prog, scale=1000.0)
        assert prog.cfg.block("body").profile_count == pytest.approx(2000, abs=1)

    def test_diamond_splits_flow(self):
        b = ProgramBuilder("d")
        b.block("entry")
        b.op(Opcode.LDA, "x", imm=1)
        b.branch(Opcode.BNE, "x", "right")
        b.block("left")
        b.jump("join")
        b.block("right")
        b.block("join")
        b.ret()
        prog = b.build()
        prog.cfg.block("entry").set_successors(["right", "left"], [0.25, 0.75])
        counts = profile_analytically(prog, write_counts=False)
        assert counts["left"] == pytest.approx(0.75)
        assert counts["right"] == pytest.approx(0.25)
        assert counts["join"] == pytest.approx(1.0)

    def test_nearly_closed_loop_is_exact(self):
        # A sweep-to-convergence solver stops far short of the fixpoint
        # when the back edge is this close to 1.
        counts = profile_analytically(loop_program(0.9999), write_counts=False)
        assert counts["body"] == pytest.approx(10_000.0, rel=1e-9)
        assert counts["post"] == pytest.approx(1.0, rel=1e-9)

    def test_loop_without_exit_raises(self):
        prog = loop_program()
        prog.cfg.block("body").set_successors(["body"], [1.0])
        with pytest.raises(CompileError, match="body"):
            profile_analytically(prog)

    def test_unreached_blocks_count_zero(self):
        # A dead loop with no exit is never entered, so it is no error.
        prog = loop_program()
        prog.cfg.block("pre").set_successors(["post"], [1.0])
        prog.cfg.block("body").set_successors(["body"], [1.0])
        counts = profile_analytically(prog, write_counts=False)
        assert counts == {"pre": 1.0, "body": 0.0, "post": 1.0}

    def test_multi_block_loop_nest(self):
        # outer: head -> inner (self loop, p=0.5) -> latch -> head (p=0.75).
        b = ProgramBuilder("nest")
        for label in ("head", "inner", "latch", "done"):
            b.block(label)
            b.op(Opcode.LDA, label, imm=0)
        b.ret()
        prog = b.build()
        prog.cfg.block("inner").set_successors(["inner", "latch"], [0.5, 0.5])
        prog.cfg.block("latch").set_successors(["head", "done"], [0.75, 0.25])
        counts = profile_analytically(prog, write_counts=False)
        assert counts["head"] == pytest.approx(4.0, rel=1e-12)
        assert counts["inner"] == pytest.approx(8.0, rel=1e-12)
        assert counts["latch"] == pytest.approx(4.0, rel=1e-12)
        assert counts["done"] == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("name", sorted(SPEC92) + sorted(KERNELS))
def test_counts_conserve_flow(name):
    """Every count solves its flow equation, on the program the
    pipeline profiles (after optimization and prepass scheduling)."""
    program = {**SPEC92, **KERNELS}[name]().program
    optimize_program(program)
    schedule_program(program, CompilerOptions().schedule_width)
    counts = profile_analytically(program, write_counts=False)
    cfg = program.cfg
    for label, preds in cfg.predecessor_map().items():
        inflow = 1.0 if label == cfg.entry_label else 0.0
        inflow += sum(counts[p] * cfg.block(p).edge_probs.get(label, 0.0) for p in preds)
        assert counts[label] == pytest.approx(inflow, rel=1e-9, abs=1e-12), label


class TestWalk:
    def test_walk_is_deterministic_per_seed(self):
        prog = loop_program()
        c1 = profile_by_walk(prog, seed=5, write_counts=False)
        c2 = profile_by_walk(prog, seed=5, write_counts=False)
        assert c1 == c2

    def test_walk_approximates_analytic(self):
        prog = loop_program(0.8)
        walk = profile_by_walk(prog, max_instructions=200_000, seed=3, write_counts=False)
        analytic = profile_analytically(prog, write_counts=False)
        ratio_walk = walk["body"] / walk["pre"]
        ratio_analytic = analytic["body"] / analytic["pre"]
        assert ratio_walk == pytest.approx(ratio_analytic, rel=0.15)

    def test_walk_writes_counts(self):
        prog = loop_program()
        profile_by_walk(prog, max_instructions=10_000, seed=1)
        assert prog.cfg.block("body").profile_count > prog.cfg.block("pre").profile_count
