"""Tests for the interference graph."""

from hypothesis import given, settings, strategies as st

from repro.compiler.interference import InterferenceGraph
from repro.compiler.webs import build_live_ranges
from repro.ir.builder import ProgramBuilder
from repro.isa.opcodes import Opcode


def graph_for(builder: ProgramBuilder):
    prog = builder.build()
    lrs = build_live_ranges(prog)
    return prog, lrs, InterferenceGraph.build(prog, lrs)


class TestBasicInterference:
    def test_simultaneously_live_values_interfere(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "a", imm=1)
        b.op(Opcode.LDA, "b", imm=2)
        b.op(Opcode.ADDQ, "c", "a", "b")
        _prog, lrs, graph = graph_for(b)
        assert graph.interferes(lrs.range_named("a"), lrs.range_named("b"))

    def test_sequential_values_do_not_interfere(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "a", imm=1)
        b.op(Opcode.ADDQ, "b", "a", "a")   # a dies here
        b.op(Opcode.ADDQ, "c", "b", "b")
        _prog, lrs, graph = graph_for(b)
        assert not graph.interferes(lrs.range_named("a"), lrs.range_named("c"))

    def test_different_classes_never_interfere(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "i", imm=1)
        b.op(Opcode.CVTQT, "f", "i")
        b.op(Opcode.ADDQ, "i2", "i", "i")
        b.op(Opcode.ADDT, "f2", "f", "f")
        _prog, lrs, graph = graph_for(b)
        assert not graph.interferes(lrs.range_named("i"), lrs.range_named("f"))

    def test_loop_carried_interference(self):
        b = ProgramBuilder("p")
        b.block("pre")
        b.op(Opcode.LDA, "inv", imm=1)
        b.op(Opcode.LDA, "acc", imm=0)
        b.block("body")
        b.op(Opcode.ADDQ, "acc", "acc", "inv")
        b.branch(Opcode.BNE, "acc", "body")
        b.block("post")
        b.op(Opcode.ADDQ, "out", "acc", "inv")
        b.ret()
        _prog, lrs, graph = graph_for(b)
        assert graph.interferes(lrs.range_named("inv"), lrs.range_named("acc"))


class TestGraphProperties:
    def test_adjacency_symmetric(self):
        b = ProgramBuilder("p")
        b.block("b0")
        names = [f"v{i}" for i in range(6)]
        for n in names:
            b.op(Opcode.LDA, n, imm=1)
        srcs = names
        b.op(Opcode.ADDQ, "sum", srcs[0], srcs[1])
        for n in srcs[2:]:
            b.op(Opcode.ADDQ, "sum", "sum", n)
        _prog, _lrs, graph = graph_for(b)
        for node, neighbors in graph.adjacency.items():
            for m in neighbors:
                assert node in graph.adjacency[m]

    def test_degree_matches_neighbors(self):
        b = ProgramBuilder("p")
        b.block("b0")
        b.op(Opcode.LDA, "a", imm=1)
        b.op(Opcode.LDA, "b", imm=2)
        b.op(Opcode.ADDQ, "c", "a", "b")
        _prog, lrs, graph = graph_for(b)
        a = lrs.range_named("a")
        # a's only neighbour is b: c is defined where both die.
        assert graph.degree(a) == len(graph.adjacency[a.lrid]) == 1

    def test_edge_count_is_half_degree_sum(self):
        b = ProgramBuilder("p")
        b.block("b0")
        for i in range(5):
            b.op(Opcode.LDA, f"v{i}", imm=i)
        b.op(Opcode.ADDQ, "s", "v0", "v4")
        _prog, _lrs, graph = graph_for(b)
        assert graph.edge_count() * 2 == sum(
            len(v) for v in graph.adjacency.values()
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 10_000))
def test_property_overlapping_chain_neighbors(n_live, seed):
    """N simultaneously-live integer values form a clique."""
    import random

    rng = random.Random(seed)
    b = ProgramBuilder("p")
    b.block("b0")
    names = [f"v{i}" for i in range(n_live)]
    for name in names:
        b.op(Opcode.LDA, name, imm=rng.randrange(100))
    # One final instruction that reads everything keeps them all live.
    acc = "v0"
    for name in names[1:]:
        b.op(Opcode.ADDQ, "acc", acc, name)
        acc = "acc"
    prog = b.build()
    lrs = build_live_ranges(prog)
    graph = InterferenceGraph.build(prog, lrs)
    ranges = [lrs.range_named(n) for n in names]
    for i, r1 in enumerate(ranges):
        for r2 in ranges[i + 1 :]:
            assert graph.interferes(r1, r2)
