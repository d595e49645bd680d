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

    # ------------------------------------------------------------------ copy
    def __deepcopy__(self, memo: dict) -> "ILProgram":
        """A deep copy built field by field, an order of magnitude faster
        than the generic walk.

        Opcodes, strings and ints are shared; values, the CFG, blocks,
        instructions and their containers are new.  Instructions are
        remapped through a vid table, so two instructions that name one
        value name one (new) value in the copy.  Every copied object is
        registered in ``memo``, so a deep copy of a structure holding a
        program and its values stays consistent in either order.  A field
        added to these classes must be added here too (the copy tests
        compare attribute names).
        """
        new = type(self).__new__(type(self))
        memo[id(self)] = new
        new.name = self.name
        table = []
        for value in self.values:
            twin = memo.get(id(value))
            if twin is None:
                twin = memo[id(value)] = ILValue(
                    value.vid,
                    value.name,
                    value.rclass,
                    value.is_stack_pointer,
                    value.is_global_pointer,
                )
            table.append(twin)
        new.values = memo[id(self.values)] = table
        new._by_name = memo[id(self._by_name)] = {
            name: table[value.vid] for name, value in self._by_name.items()
        }

        cfg = self.cfg
        new_cfg = new.cfg = memo[id(cfg)] = ControlFlowGraph.__new__(ControlFlowGraph)
        new_cfg._order = memo[id(cfg._order)] = list(cfg._order)
        new_cfg.entry_label = cfg.entry_label
        blocks = new_cfg._blocks = memo[id(cfg._blocks)] = {}
        for label, block in cfg._blocks.items():
            twin_block = memo[id(block)] = BasicBlock.__new__(BasicBlock)
            twin_block.label = block.label
            instructions = []
            for instr in block.instructions:
                srcs = instr.srcs
                if srcs:
                    srcs = memo[id(srcs)] = tuple([table[src.vid] for src in srcs])
                dest = instr.dest
                twin_instr = memo[id(instr)] = ILInstruction(
                    instr.opcode,
                    None if dest is None else table[dest.vid],
                    srcs,
                    instr.imm,
                    instr.target,
                    instr.uid,
                    instr.mem_stream,
                    instr.branch_model,
                )
                instructions.append(twin_instr)
            twin_block.instructions = memo[id(block.instructions)] = instructions
            twin_block.succ_labels = memo[id(block.succ_labels)] = list(block.succ_labels)
            twin_block.edge_probs = memo[id(block.edge_probs)] = dict(block.edge_probs)
            twin_block.profile_count = block.profile_count
            blocks[label] = twin_block
        return new

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
