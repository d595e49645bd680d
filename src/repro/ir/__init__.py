"""Compiler intermediate representation: values, live ranges, CFGs, programs."""

from repro.ir.basic_block import BasicBlock
from repro.ir.builder import ProgramBuilder
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import ILInstruction
from repro.ir.live_range import LiveRange, LiveRangeSet
from repro.ir.machine_program import (
    INSTRUCTION_BYTES,
    MachineBlock,
    MachineInstrMeta,
    MachineProgram,
)
from repro.ir.program import ILProgram
from repro.ir.values import ILValue

__all__ = [
    "BasicBlock",
    "ProgramBuilder",
    "ControlFlowGraph",
    "ILInstruction",
    "LiveRange",
    "LiveRangeSet",
    "INSTRUCTION_BYTES",
    "MachineBlock",
    "MachineInstrMeta",
    "MachineProgram",
    "ILProgram",
    "ILValue",
]
