"""Differential test: bit-vector worklist webs against the dense oracle.

``dense_build_live_ranges`` below is the original web construction — a
per-(block, value) set dataflow iterated to a fixed point with no
worklist.  It is slow on large CFGs but simple, so it serves as the oracle
for :func:`repro.compiler.webs.build_live_ranges`: both must produce the
same live ranges, numbered the same way, with the same def/use maps in the
same insertion order.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import pipeline, regalloc
from repro.compiler.pipeline import compile_program
from repro.compiler.webs import build_live_ranges
from repro.core.partition.local import LocalScheduler
from repro.core.registers import RegisterAssignment
from repro.ir.builder import ProgramBuilder
from repro.ir.live_range import LiveRangeSet
from repro.ir.program import ILProgram
from repro.ir.values import ILValue
from repro.isa.opcodes import Opcode
from repro.workloads.kernels import KERNELS
from repro.workloads.spec92 import SPEC92


# --------------------------------------------------------------- the oracle
def _entry_def(value: ILValue) -> int:
    return -1 - value.vid


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(self, key: tuple[int, int]) -> tuple[int, int]:
        parent = self.parent.setdefault(key, key)
        if parent != key:
            root = self.find(parent)
            self.parent[key] = root
            return root
        return key

    def union(self, a: tuple[int, int], b: tuple[int, int]) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def dense_build_live_ranges(program: ILProgram) -> LiveRangeSet:
    """Reaching definitions as one set per (block, value), rescanned to a
    fixed point, then the same union-find merge and numbering."""
    cfg = program.cfg
    labels = cfg.labels()

    gen: dict[str, dict[ILValue, set[int]]] = {}
    for label in labels:
        block = cfg.block(label)
        last: dict[ILValue, set[int]] = {}
        for instr in block.instructions:
            if instr.dest is not None:
                last[instr.dest] = {instr.uid}
        gen[label] = last

    reach_in: dict[str, dict[ILValue, set[int]]] = {
        label: defaultdict(set) for label in labels
    }
    reach_out: dict[str, dict[ILValue, set[int]]] = {
        label: defaultdict(set) for label in labels
    }
    entry = cfg.entry_label
    if entry is not None:
        for value in program.values:
            reach_in[entry][value].add(_entry_def(value))

    preds = cfg.predecessor_map()
    order = cfg.reverse_postorder()
    for label in labels:
        if label not in order:
            order.append(label)

    changed = True
    while changed:
        changed = False
        for label in order:
            rin = reach_in[label]
            for pred in preds[label]:
                for value, defs in reach_out[pred].items():
                    before = len(rin[value])
                    rin[value] |= defs
                    if len(rin[value]) != before:
                        changed = True
            rout = reach_out[label]
            block_gen = gen[label]
            for value in set(rin) | set(block_gen):
                new = block_gen.get(value) or rin.get(value, set())
                if new != rout.get(value, set()):
                    rout[value] = set(new)
                    changed = True

    uf = _UnionFind()
    use_attach: dict[tuple[int, ILValue], tuple[int, int]] = {}
    real_defs: set[tuple[int, int]] = set()
    for label in labels:
        block = cfg.block(label)
        current: dict[ILValue, set[int]] = {
            v: set(defs) for v, defs in reach_in[label].items()
        }
        for instr in block.instructions:
            for src in instr.srcs:
                defs = current.get(src)
                if not defs:
                    defs = {_entry_def(src)}
                    current[src] = defs
                keys = [(d, src.vid) for d in defs]
                for other in keys[1:]:
                    uf.union(keys[0], other)
                use_attach[(instr.uid, src)] = keys[0]
            if instr.dest is not None:
                current[instr.dest] = {instr.uid}
                real_defs.add((instr.uid, instr.dest.vid))
                uf.find((instr.uid, instr.dest.vid))

    lrs = LiveRangeSet()
    by_value = {v.vid: v for v in program.values}
    root_to_lr: dict[tuple[int, int], object] = {}
    web_counter: dict[int, int] = defaultdict(int)

    def lr_for_root(root: tuple[int, int]):
        if root not in root_to_lr:
            value = by_value[root[1]]
            index = web_counter[value.vid]
            web_counter[value.vid] += 1
            root_to_lr[root] = lrs.new_range(value, web_index=index)
        return root_to_lr[root]

    for def_key in sorted(real_defs):
        uid, vid = def_key
        lr = lr_for_root(uf.find(def_key))
        lr.def_uids.add(uid)
        lrs.def_map[(uid, by_value[vid])] = lr

    for (uid, value), key in sorted(use_attach.items(), key=lambda kv: (kv[0][0], kv[0][1].vid)):
        lr = lr_for_root(uf.find(key))
        lr.use_uids.add(uid)
        lrs.use_map[(uid, value)] = lr

    for lr in lrs:
        if web_counter[lr.value.vid] == 1:
            lr.web_index = 0
    return lrs


# ------------------------------------------------------------ comparison
def canonical(lrs: LiveRangeSet):
    """Everything downstream passes read from a fresh web analysis."""
    ranges = [
        (lr.lrid, lr.value.vid, lr.web_index, sorted(lr.def_uids), sorted(lr.use_uids))
        for lr in lrs
    ]
    defs = [(uid, value.vid, lr.lrid) for (uid, value), lr in lrs.def_map.items()]
    uses = [(uid, value.vid, lr.lrid) for (uid, value), lr in lrs.use_map.items()]
    return ranges, defs, uses


def assert_matches_oracle(program: ILProgram) -> LiveRangeSet:
    lrs = build_live_ranges(program)
    assert canonical(lrs) == canonical(dense_build_live_ranges(program))
    return lrs


# --------------------------------------------------- real programs, every round
_PROGRAMS = {**SPEC92, **KERNELS}


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
@pytest.mark.parametrize("part", ["native", "local"])
def test_compile_matches_oracle_at_every_call_site(name, part, monkeypatch):
    calls = {"pipeline": 0, "regalloc": 0}

    def checked(site):
        def build(program):
            calls[site] += 1
            return assert_matches_oracle(program)
        return build

    # Both call sites, so every spill/recolour round is compared too.
    monkeypatch.setattr(pipeline, "build_live_ranges", checked("pipeline"))
    monkeypatch.setattr(regalloc, "build_live_ranges", checked("regalloc"))
    program = _PROGRAMS[name]().program
    if part == "native":
        compile_program(program, RegisterAssignment.single_cluster(), None)
    else:
        compile_program(program, RegisterAssignment.even_odd_dual(), LocalScheduler())
    assert calls["pipeline"] == 1 and calls["regalloc"] >= 1


# ----------------------------------------------------- tangled random CFGs
_NAMES = ("a", "b", "c", "d")


@st.composite
def tangled_programs(draw) -> ILProgram:
    """CFGs with back edges, values redefined across blocks, uses before
    any definition, and a block no path from the entry reaches."""
    count = draw(st.integers(1, 6))
    labels = [f"b{i}" for i in range(count)]
    b = ProgramBuilder("tangled")
    sp = b.stack_pointer_value()
    for label in labels:
        b.block(label)
        for _ in range(draw(st.integers(0, 4))):
            srcs = draw(st.lists(st.sampled_from(_NAMES), max_size=2))
            if draw(st.booleans()):
                b.op(Opcode.ADDQ, draw(st.sampled_from(_NAMES)), *srcs)
            else:
                b.store(srcs[0] if srcs else "a", sp)
        kind = draw(st.sampled_from(("fall", "branch", "jump", "ret")))
        target = draw(st.sampled_from(labels))
        if kind == "branch":
            b.branch(Opcode.BNE, draw(st.sampled_from(_NAMES)), target)
        elif kind == "jump":
            b.jump(target)
        elif kind == "ret":
            b.ret()
    b.block("exit")
    b.ret()
    # Unreachable: only `exit` precedes it, and `exit` returns.
    b.block("dead")
    b.op(Opcode.ADDQ, draw(st.sampled_from(_NAMES)), draw(st.sampled_from(_NAMES)))
    b.store(draw(st.sampled_from(_NAMES)), sp)
    b.jump(draw(st.sampled_from(labels)))
    return b.build()


@settings(max_examples=200, deadline=None)
@given(tangled_programs())
def test_tangled_cfgs_match_oracle(program):
    assert_matches_oracle(program)


def test_tangled_strategy_covers_the_hard_shapes():
    """The generator really produces back edges, cross-block redefinition,
    entry definitions and an unreachable block (a merge bug needs them)."""
    seen = set()

    @settings(max_examples=200, deadline=None)
    @given(tangled_programs())
    def probe(program):
        cfg = program.cfg
        if cfg.back_edges():
            seen.add("back_edge")
        if "dead" not in cfg.reverse_postorder():
            seen.add("unreachable")
        defined_in: dict[int, set[str]] = defaultdict(set)
        for block in cfg.blocks():
            for instr in block.instructions:
                if instr.dest is not None:
                    defined_in[instr.dest.vid].add(block.label)
        if any(len(blocks) > 1 for blocks in defined_in.values()):
            seen.add("redefined")
        if any(not lr.def_uids for lr in build_live_ranges(program)):
            seen.add("entry_def")

    probe()
    assert seen == {"back_edge", "unreachable", "redefined", "entry_def"}
