"""Tests for the baseline partitioners and the partitioner interface."""

from repro.compiler.webs import build_live_ranges, designate_global_candidates
from repro.core.partition import (
    LocalScheduler,
    RandomPartitioner,
    RoundRobinPartitioner,
    complete_partition,
)
from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode


def sample():
    b = ProgramBuilder("p")
    sp = b.stack_pointer_value()
    b.block("b0", count=10)
    for i in range(8):
        b.op(Opcode.LDA, f"v{i}", imm=i)
    for i in range(8):
        b.store(f"v{i}", sp)
    prog = b.build()
    lrs = build_live_ranges(prog)
    designate_global_candidates(lrs)
    return prog, lrs


class TestRoundRobin:
    def test_alternates(self):
        prog, lrs = sample()
        part = RoundRobinPartitioner().partition(prog, lrs)
        values = [part[lr.lrid] for lr in lrs.local_candidates()]
        assert values == [i % 2 for i in range(len(values))]

    def test_skips_globals(self):
        prog, lrs = sample()
        part = RoundRobinPartitioner().partition(prog, lrs)
        for lr in lrs.global_candidates():
            assert lr.lrid not in part


class TestRandom:
    def test_deterministic_per_seed(self):
        prog, lrs = sample()
        p1 = RandomPartitioner(seed=7).partition(prog, lrs)
        p2 = RandomPartitioner(seed=7).partition(prog, lrs)
        assert p1 == p2

    def test_different_seeds_differ(self):
        prog, lrs = sample()
        p1 = RandomPartitioner(seed=1).partition(prog, lrs)
        p2 = RandomPartitioner(seed=2).partition(prog, lrs)
        assert p1 != p2

    def test_values_are_clusters(self):
        prog, lrs = sample()
        part = RandomPartitioner(seed=1).partition(prog, lrs)
        assert set(part.values()) <= {0, 1}


class TestInterface:
    def test_partition_by_value_collapses_webs(self):
        prog, lrs = sample()
        scheduler = LocalScheduler()
        by_value = scheduler.partition_by_value(prog, lrs)
        assert by_value
        assert all(isinstance(k, int) for k in by_value)

    def test_complete_partition_fills_unassigned(self):
        prog, lrs = sample()
        partial = {lr.lrid: None for lr in lrs.local_candidates()}
        full = complete_partition(lrs, partial)
        assert len(full) == len(lrs.local_candidates())
        counts = [0, 0]
        for c in full.values():
            counts[c] += 1
        assert abs(counts[0] - counts[1]) <= 1

    def test_local_scheduler_covers_all_candidates(self):
        prog, lrs = sample()
        part = LocalScheduler().partition(prog, lrs)
        assert set(part) == {lr.lrid for lr in lrs.local_candidates()}


class TestNClusterCompletion:
    def test_complete_partition_round_robins_three_clusters(self):
        prog, lrs = sample()
        partial = {lr.lrid: None for lr in lrs.local_candidates()}
        full = complete_partition(lrs, partial, num_clusters=3)
        assert len(full) == len(lrs.local_candidates())
        counts = [0, 0, 0]
        for c in full.values():
            assert c in (0, 1, 2)
            counts[c] += 1
        assert max(counts) - min(counts) <= 1

    def test_preassigned_clusters_survive_completion(self):
        prog, lrs = sample()
        locals_ = lrs.local_candidates()
        pinned = locals_[0].lrid
        partial = {lr.lrid: None for lr in locals_}
        partial[pinned] = 2
        full = complete_partition(lrs, partial, num_clusters=3)
        assert full[pinned] == 2
