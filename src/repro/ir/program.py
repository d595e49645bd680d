"""The IL program container."""

from __future__ import annotations

from typing import Iterator, Optional

from repro.isa.registers import RegisterClass
from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import ILInstruction
from repro.ir.values import ILValue


class ILProgram:
    """An IL program: a CFG plus the value namespace.

    Attributes:
        name: program name (benchmark name for generated workloads).
        cfg: the control-flow graph.
        values: all IL values, indexed by ``vid``.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.cfg = ControlFlowGraph()
        self.values: list[ILValue] = []
        self._by_name: dict[str, ILValue] = {}

    # ----------------------------------------------------------- value space
    def new_value(
        self,
        name: Optional[str] = None,
        rclass: RegisterClass = RegisterClass.INT,
        is_stack_pointer: bool = False,
        is_global_pointer: bool = False,
    ) -> ILValue:
        """Create a fresh IL value; names are made unique if reused."""
        vid = len(self.values)
        if name is None:
            name = f"t{vid}"
        elif name in self._by_name:
            name = f"{name}.{vid}"
        value = ILValue(vid, name, rclass, is_stack_pointer, is_global_pointer)
        self.values.append(value)
        self._by_name[name] = value
        return value

    def value_named(self, name: str) -> ILValue:
        return self._by_name[name]

    @property
    def stack_pointer(self) -> Optional[ILValue]:
        for v in self.values:
            if v.is_stack_pointer:
                return v
        return None

    @property
    def global_pointer(self) -> Optional[ILValue]:
        for v in self.values:
            if v.is_global_pointer:
                return v
        return None

    # ------------------------------------------------------------- structure
    def add_block(self, label: str) -> BasicBlock:
        return self.cfg.add_block(BasicBlock(label))

    def finalize(self) -> "ILProgram":
        """Wire fallthrough edges and assign instruction uids; returns self."""
        self.cfg.finalize()
        self.renumber()
        return self

    def renumber(self) -> None:
        """Assign dense uids to all instructions in layout order.

        Must be re-run after any pass that inserts or removes instructions;
        analyses key off the uids.
        """
        uid = 0
        for block in self.cfg.blocks():
            for instr in block.instructions:
                instr.uid = uid
                uid += 1

    # -------------------------------------------------------------- queries
    def all_instructions(self) -> Iterator[ILInstruction]:
        for block in self.cfg.blocks():
            yield from block.instructions

    def instruction_count(self) -> int:
        return sum(len(b) for b in self.cfg.blocks())

    def format(self) -> str:
        """Multi-line listing of the whole program."""
        parts = [f"program {self.name}"]
        parts.extend(block.format() for block in self.cfg.blocks())
        return "\n".join(parts)
