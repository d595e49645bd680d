"""Control-flow graph over basic blocks."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.ir.basic_block import BasicBlock


class ControlFlowGraph:
    """A CFG: labelled basic blocks, an entry block, and successor edges.

    Layout order (the order blocks were added) doubles as the static code
    order: a block without an explicit terminator falls through to the next
    block in layout order, provided :meth:`finalize` wired it.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, BasicBlock] = {}
        self._order: list[str] = []
        self.entry_label: Optional[str] = None

    # ------------------------------------------------------------------ build
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.label in self._blocks:
            raise ValueError(f"duplicate block label: {block.label}")
        self._blocks[block.label] = block
        self._order.append(block.label)
        if self.entry_label is None:
            self.entry_label = block.label
        return block

    def block(self, label: str) -> BasicBlock:
        return self._blocks[label]

    def __contains__(self, label: str) -> bool:
        return label in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    # --------------------------------------------------------------- traversal
    @property
    def entry(self) -> BasicBlock:
        if self.entry_label is None:
            raise ValueError("empty CFG")
        return self._blocks[self.entry_label]

    def blocks(self) -> Iterator[BasicBlock]:
        """Blocks in layout order."""
        for label in self._order:
            yield self._blocks[label]

    def labels(self) -> list[str]:
        return list(self._order)

    def layout_index(self, label: str) -> int:
        return self._order.index(label)

    def successors(self, label: str) -> list[BasicBlock]:
        return [self._blocks[s] for s in self._blocks[label].succ_labels]

    def predecessor_map(self) -> dict[str, list[str]]:
        """Label -> predecessor labels, computed in one pass."""
        preds: dict[str, list[str]] = {label: [] for label in self._order}
        for block in self.blocks():
            for succ in block.succ_labels:
                preds[succ].append(block.label)
        return preds

    def reverse_postorder(self) -> list[str]:
        """Labels in reverse postorder from the entry (forward dataflow order)."""
        seen: set[str] = set()
        postorder: list[str] = []
        if self.entry_label is None:
            return []
        stack: list[tuple[str, int]] = [(self.entry_label, 0)]
        seen.add(self.entry_label)
        while stack:
            label, child = stack[-1]
            succs = self._blocks[label].succ_labels
            if child < len(succs):
                stack[-1] = (label, child + 1)
                nxt = succs[child]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, 0))
            else:
                postorder.append(label)
                stack.pop()
        return list(reversed(postorder))

    def back_edges(self) -> list[tuple[str, str]]:
        """CFG back edges ``(tail, head)`` found by DFS (loop detection)."""
        if self.entry_label is None:
            return []
        result: list[tuple[str, str]] = []
        state: dict[str, int] = {}  # 1 = on stack, 2 = done
        stack: list[tuple[str, int]] = [(self.entry_label, 0)]
        state[self.entry_label] = 1
        while stack:
            label, child = stack[-1]
            succs = self._blocks[label].succ_labels
            if child < len(succs):
                stack[-1] = (label, child + 1)
                nxt = succs[child]
                if state.get(nxt) == 1:
                    result.append((label, nxt))
                elif nxt not in state:
                    state[nxt] = 1
                    stack.append((nxt, 0))
            else:
                state[label] = 2
                stack.pop()
        return result

    # ---------------------------------------------------------------- wiring
    def finalize(self) -> None:
        """Wire implicit fallthrough edges and validate explicit ones.

        A block whose terminator is absent or conditional falls through to
        the next block in layout order.  Raises if an edge targets an
        unknown label or a non-final block has no successor.
        """
        for idx, label in enumerate(self._order):
            block = self._blocks[label]
            term = block.terminator
            fallthrough = self._order[idx + 1] if idx + 1 < len(self._order) else None
            if term is None:
                if not block.succ_labels:
                    if fallthrough is not None:
                        block.set_successors([fallthrough], [1.0])
            elif term.opcode.is_unconditional:
                if not block.succ_labels:
                    if term.target is None:
                        # A return (or indirect jump) with no static target
                        # is a program exit.
                        from repro.isa.opcodes import Opcode

                        if term.opcode in (Opcode.RET, Opcode.JMP):
                            continue
                        raise ValueError(f"unconditional branch without target in {label}")
                    block.set_successors([term.target], [1.0])
            else:  # conditional
                if not block.succ_labels:
                    if term.target is None:
                        raise ValueError(f"conditional branch missing a target in {label}")
                    if fallthrough is None:
                        # Last block: falling through the not-taken edge
                        # exits the program.
                        block.set_successors([term.target], [1.0])
                    else:
                        block.set_successors([term.target, fallthrough], [0.5, 0.5])
            for succ in block.succ_labels:
                if succ not in self._blocks:
                    raise ValueError(f"edge from {label} to unknown block {succ}")
