"""Dataflow liveness analysis over IL values.

Classic backward may-analysis (Aho et al. [9], which the paper cites for
its compiler machinery):

    live_out(B) = union of live_in(S) over successors S
    live_in(B)  = use(B) | (live_out(B) - def(B))

iterated to a fixpoint over the reverse-postorder worklist.  Results are
over :class:`~repro.ir.values.ILValue` objects; web construction refines
them into live ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import ILProgram
from repro.ir.values import ILValue


@dataclass
class BlockLiveness:
    """Liveness sets for one basic block."""

    use: set[ILValue] = field(default_factory=set)
    defs: set[ILValue] = field(default_factory=set)
    live_in: set[ILValue] = field(default_factory=set)
    live_out: set[ILValue] = field(default_factory=set)


class LivenessInfo:
    """Program-wide liveness: per-block sets plus in-block iteration help."""

    def __init__(self, program: ILProgram) -> None:
        self.program = program
        self.blocks: dict[str, BlockLiveness] = {}
        self._compute()

    def _compute(self) -> None:
        cfg = self.program.cfg
        for block in cfg.blocks():
            info = BlockLiveness()
            for instr in block.instructions:
                for src in instr.srcs:
                    if src not in info.defs:
                        info.use.add(src)
                if instr.dest is not None:
                    info.defs.add(instr.dest)
            self.blocks[block.label] = info

        preds = cfg.predecessor_map()
        # Backward analysis: seed the worklist in postorder (reverse of RPO).
        order = list(reversed(cfg.reverse_postorder()))
        # Include unreachable blocks so lookups never fail.
        for label in cfg.labels():
            if label not in order:
                order.append(label)
        worklist = list(order)
        in_worklist = set(worklist)
        while worklist:
            label = worklist.pop(0)
            in_worklist.discard(label)
            block = cfg.block(label)
            info = self.blocks[label]
            new_out: set[ILValue] = set()
            for succ in block.succ_labels:
                new_out |= self.blocks[succ].live_in
            new_in = info.use | (new_out - info.defs)
            if new_out != info.live_out or new_in != info.live_in:
                info.live_out = new_out
                info.live_in = new_in
                for pred in preds[label]:
                    if pred not in in_worklist:
                        worklist.append(pred)
                        in_worklist.add(pred)

    def live_in(self, label: str) -> set[ILValue]:
        return self.blocks[label].live_in

    def live_out(self, label: str) -> set[ILValue]:
        return self.blocks[label].live_out
