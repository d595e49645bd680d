"""Tests for compile-time balance estimation."""

import pytest

from repro.compiler.webs import build_live_ranges, designate_global_candidates
from repro.core.balance import (
    DistributionStats,
    il_plan,
    imbalance_around,
    static_distribution_stats,
)
from repro.core.distribution import Scenario
from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode


def block_program(n=4):
    """One block computing a chain of n adds over distinct values."""
    b = ProgramBuilder("p")
    b.block("b0", count=10)
    b.op(Opcode.LDA, "v0", imm=0)
    for i in range(1, n):
        b.op(Opcode.ADDQ, f"v{i}", f"v{i-1}", f"v{i-1}")
    return b.build()


def ranges_for(prog):
    lrs = build_live_ranges(prog)
    designate_global_candidates(lrs)
    return lrs


class TestIlPlan:
    def test_unassigned_operands_are_wildcards(self):
        prog = block_program()
        lrs = ranges_for(prog)
        instr = prog.cfg.block("b0").instructions[1]
        plan = il_plan(instr, lrs, {}, 2)
        assert plan.scenario is Scenario.SINGLE

    def test_assigned_operands_constrain_plan(self):
        prog = block_program()
        lrs = ranges_for(prog)
        cluster_of = {lr.lrid: 0 for lr in lrs}
        v1 = lrs.range_named("v1")
        cluster_of[v1.lrid] = 1
        # v1 = v0 + v0 with v0 in c0 and v1 in c1 -> dual.
        instr = prog.cfg.block("b0").instructions[1]
        plan = il_plan(instr, lrs, cluster_of, 2)
        assert plan.is_dual

    def test_global_candidates_everywhere(self):
        b = ProgramBuilder("p")
        sp = b.stack_pointer_value()
        b.block("b0")
        b.load("x", sp)
        prog = b.build()
        lrs = ranges_for(prog)
        x = lrs.range_named("x")
        plan = il_plan(
            prog.cfg.block("b0").instructions[0], lrs, {x.lrid: 1}, 2
        )
        # Global SP readable everywhere: single distribution to x's cluster.
        assert plan.scenario is Scenario.SINGLE
        assert plan.master == 1


class TestImbalance:
    def test_unassigned_block_has_zero_imbalance(self):
        prog = block_program()
        lrs = ranges_for(prog)
        block = prog.cfg.block("b0")
        cluster_of = {lr.lrid: None for lr in lrs}
        assert imbalance_around(block, 2, lrs, cluster_of, 2) == 0

    def test_one_sided_assignment_counts(self):
        prog = block_program(4)
        lrs = ranges_for(prog)
        block = prog.cfg.block("b0")
        cluster_of = {lr.lrid: 0 for lr in lrs}
        assert imbalance_around(block, 2, lrs, cluster_of, 2) == 4

    def test_balanced_assignment_near_zero(self):
        prog = block_program(4)
        lrs = ranges_for(prog)
        block = prog.cfg.block("b0")
        cluster_of = {lr.lrid: lr.lrid % 2 for lr in lrs}
        assert abs(imbalance_around(block, 2, lrs, cluster_of, 2)) <= 2

    def test_prefix_scope_counts_less(self):
        prog = block_program(6)
        lrs = ranges_for(prog)
        block = prog.cfg.block("b0")
        cluster_of = {lr.lrid: 0 for lr in lrs}
        whole = imbalance_around(block, 1, lrs, cluster_of, 2, scope="block")
        prefix = imbalance_around(block, 1, lrs, cluster_of, 2, scope="prefix")
        assert prefix <= whole
        assert prefix == 1  # only the first instruction precedes index 1


class TestDistributionStats:
    def test_one_sided_stats(self):
        prog = block_program(4)
        lrs = ranges_for(prog)
        cluster_of = {lr.lrid: 0 for lr in lrs}
        stats = static_distribution_stats(prog, lrs, cluster_of, 2)
        assert stats.dual == 0
        assert stats.single_per_cluster[0] == pytest.approx(40.0)  # 4 instrs x count 10
        assert stats.balance == pytest.approx(0.0)

    def test_dual_fraction(self):
        prog = block_program(4)
        lrs = ranges_for(prog)
        cluster_of = {lr.lrid: lr.lrid % 2 for lr in lrs}
        stats = static_distribution_stats(prog, lrs, cluster_of, 2)
        assert 0.0 <= stats.dual_fraction <= 1.0
        assert stats.total == pytest.approx(40.0)

    def test_empty_stats_degenerate(self):
        stats = DistributionStats(single_per_cluster=[0.0, 0.0])
        assert stats.dual_fraction == 0.0
        assert stats.balance == 1.0
