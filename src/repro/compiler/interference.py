"""Interference graph over live ranges.

Two live ranges interfere if one is defined while the other is live (and
they belong to the same register class, so they compete for the same
register file).  The graph feeds the Briggs-style colouring allocator
(Section 3.4).
"""

from __future__ import annotations

from repro.ir.live_range import LiveRange, LiveRangeSet
from repro.ir.program import ILProgram


class InterferenceGraph:
    """Undirected interference graph keyed by live-range id."""

    def __init__(self, lrs: LiveRangeSet) -> None:
        self.adjacency: dict[int, set[int]] = {lr.lrid: set() for lr in lrs}

    # ------------------------------------------------------------- building
    @classmethod
    def build(cls, program: ILProgram, lrs: LiveRangeSet) -> "InterferenceGraph":
        graph = cls(lrs)
        live_out = _range_liveness(program, lrs)
        for block in program.cfg.blocks():
            live: set[LiveRange] = set(live_out[block.label])
            for instr in reversed(block.instructions):
                dest_lr = None
                if instr.dest is not None:
                    dest_lr = lrs.def_map.get((instr.uid, instr.dest))
                if dest_lr is not None:
                    for other in live:
                        if other is not dest_lr and other.rclass is dest_lr.rclass:
                            graph.add_edge(dest_lr, other)
                    live.discard(dest_lr)
                for src in instr.srcs:
                    use_lr = lrs.use_map.get((instr.uid, src))
                    if use_lr is not None:
                        live.add(use_lr)
        return graph

    def add_edge(self, a: LiveRange, b: LiveRange) -> None:
        if a.lrid == b.lrid:
            return
        self.adjacency[a.lrid].add(b.lrid)
        self.adjacency[b.lrid].add(a.lrid)

    # -------------------------------------------------------------- queries
    def interferes(self, a: LiveRange, b: LiveRange) -> bool:
        return b.lrid in self.adjacency[a.lrid]

    def degree(self, lr: LiveRange) -> int:
        return len(self.adjacency[lr.lrid])

    def __len__(self) -> int:
        return len(self.adjacency)

    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values()) // 2


def _range_liveness(
    program: ILProgram, lrs: LiveRangeSet
) -> dict[str, set[LiveRange]]:
    """Live-out set of live ranges per block (backward dataflow)."""
    cfg = program.cfg
    use: dict[str, set[LiveRange]] = {}
    defs: dict[str, set[LiveRange]] = {}
    for block in cfg.blocks():
        bu: set[LiveRange] = set()
        bd: set[LiveRange] = set()
        for instr in block.instructions:
            for src in instr.srcs:
                lr = lrs.use_map.get((instr.uid, src))
                if lr is not None and lr not in bd:
                    bu.add(lr)
            if instr.dest is not None:
                lr = lrs.def_map.get((instr.uid, instr.dest))
                if lr is not None:
                    bd.add(lr)
        use[block.label] = bu
        defs[block.label] = bd

    live_in: dict[str, set[LiveRange]] = {label: set() for label in cfg.labels()}
    live_out: dict[str, set[LiveRange]] = {label: set() for label in cfg.labels()}
    preds = cfg.predecessor_map()
    worklist = list(reversed(cfg.reverse_postorder()))
    for label in cfg.labels():
        if label not in worklist:
            worklist.append(label)
    pending = set(worklist)
    while worklist:
        label = worklist.pop(0)
        pending.discard(label)
        block = cfg.block(label)
        out: set[LiveRange] = set()
        for succ in block.succ_labels:
            out |= live_in[succ]
        lin = use[label] | (out - defs[label])
        if out != live_out[label] or lin != live_in[label]:
            live_out[label] = out
            live_in[label] = lin
            for pred in preds[label]:
                if pred not in pending:
                    worklist.append(pred)
                    pending.add(pred)
    return live_out
