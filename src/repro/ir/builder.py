"""Fluent builder for IL programs.

Used by tests, examples (e.g. the paper's Figure 6 control-flow graph) and
the synthetic workload generator.  Typical use::

    b = ProgramBuilder("example")
    sp = b.stack_pointer_value()
    b.block("bb1", count=20)
    c = b.op(Opcode.LDA, "C", imm=0)
    b.jump("bb4")
    ...
    program = b.build()
"""

from __future__ import annotations

from typing import Optional, Union

from repro.isa.opcodes import Opcode
from repro.isa.registers import RegisterClass
from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import ILInstruction
from repro.ir.program import ILProgram
from repro.ir.values import ILValue

ValueRef = Union[ILValue, str]


class ProgramBuilder:
    """Builds an :class:`~repro.ir.program.ILProgram` incrementally."""

    def __init__(self, name: str) -> None:
        self.program = ILProgram(name)
        self._current: Optional[BasicBlock] = None

    # ------------------------------------------------------------- values
    def value(self, name: str, rclass: RegisterClass = RegisterClass.INT) -> ILValue:
        """Get the value called ``name``, creating it on first use."""
        try:
            return self.program.value_named(name)
        except KeyError:
            return self.program.new_value(name, rclass)

    def fp_value(self, name: str) -> ILValue:
        return self.value(name, RegisterClass.FP)

    def stack_pointer_value(self, name: str = "SP") -> ILValue:
        try:
            return self.program.value_named(name)
        except KeyError:
            return self.program.new_value(name, RegisterClass.INT, is_stack_pointer=True)

    def global_pointer_value(self, name: str = "GP") -> ILValue:
        try:
            return self.program.value_named(name)
        except KeyError:
            return self.program.new_value(name, RegisterClass.INT, is_global_pointer=True)

    def _resolve(self, ref: ValueRef) -> ILValue:
        return ref if isinstance(ref, ILValue) else self.value(ref)

    # ------------------------------------------------------------- blocks
    def block(self, label: str, count: int = 0) -> BasicBlock:
        """Start a new basic block and make it current."""
        blk = self.program.add_block(label)
        blk.profile_count = count
        self._current = blk
        return blk

    @property
    def current(self) -> BasicBlock:
        if self._current is None:
            raise ValueError("no current block; call block() first")
        return self._current

    def edge_probs(self, probs: dict[str, float], label: Optional[str] = None) -> None:
        """Set successor edge probabilities on a block (default: current)."""
        blk = self.current if label is None else self.program.cfg.block(label)
        blk.set_successors(list(probs.keys()), list(probs.values()))

    # -------------------------------------------------------------- emits
    def emit(self, instr: ILInstruction) -> ILInstruction:
        return self.current.add(instr)

    def op(
        self,
        opcode: Opcode,
        dest: Optional[ValueRef],
        *srcs: ValueRef,
        imm: Optional[int] = None,
    ) -> Optional[ILValue]:
        """Emit an ALU-style operation; returns the destination value."""
        dest_value = None
        if dest is not None:
            rclass = RegisterClass.FP if opcode.writes_fp else RegisterClass.INT
            dest_value = (
                dest if isinstance(dest, ILValue) else self.value(dest, rclass)
            )
        self.emit(
            ILInstruction(
                opcode,
                dest=dest_value,
                srcs=tuple(self._resolve(s) for s in srcs),
                imm=imm,
            )
        )
        return dest_value

    def load(
        self,
        dest: ValueRef,
        base: ValueRef,
        imm: Optional[int] = None,
        stream: Optional[str] = None,
        opcode: Opcode = Opcode.LDQ,
    ) -> ILValue:
        rclass = RegisterClass.FP if opcode.writes_fp else RegisterClass.INT
        dest_value = dest if isinstance(dest, ILValue) else self.value(dest, rclass)
        self.emit(
            ILInstruction(
                opcode,
                dest=dest_value,
                srcs=(self._resolve(base),),
                imm=imm,
                mem_stream=stream,
            )
        )
        return dest_value

    def store(
        self,
        value: ValueRef,
        base: ValueRef,
        imm: Optional[int] = None,
        stream: Optional[str] = None,
        opcode: Opcode = Opcode.STQ,
    ) -> None:
        self.emit(
            ILInstruction(
                opcode,
                srcs=(self._resolve(value), self._resolve(base)),
                imm=imm,
                mem_stream=stream,
            )
        )

    def branch(
        self,
        opcode: Opcode,
        cond: ValueRef,
        target: str,
        model: Optional[str] = None,
    ) -> None:
        """Emit a conditional branch to ``target`` (falls through otherwise)."""
        if not opcode.is_conditional_branch:
            raise ValueError(f"{opcode} is not a conditional branch")
        self.emit(
            ILInstruction(
                opcode,
                srcs=(self._resolve(cond),),
                target=target,
                branch_model=model,
            )
        )

    def jump(self, target: str) -> None:
        self.emit(ILInstruction(Opcode.BR, target=target))

    def ret(self) -> None:
        self.emit(ILInstruction(Opcode.RET))

    # -------------------------------------------------------------- finish
    def build(self) -> ILProgram:
        """Finalize the CFG (fallthrough wiring, uids) and return the program."""
        return self.program.finalize()
