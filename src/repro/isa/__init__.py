"""Alpha-flavoured ISA model: registers, opcodes, machine instructions."""

from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import MOVE_OPCODES, InstrClass, Opcode
from repro.isa.registers import (
    GLOBAL_POINTER,
    INT_ZERO,
    FP_ZERO,
    NUM_FP_REGS,
    NUM_INT_REGS,
    STACK_POINTER,
    Register,
    RegisterClass,
    all_registers,
    allocatable_registers,
    fp_reg,
    int_reg,
    reg_from_uid,
)

__all__ = [
    "MachineInstruction",
    "MOVE_OPCODES",
    "InstrClass",
    "Opcode",
    "GLOBAL_POINTER",
    "INT_ZERO",
    "FP_ZERO",
    "NUM_FP_REGS",
    "NUM_INT_REGS",
    "STACK_POINTER",
    "Register",
    "RegisterClass",
    "all_registers",
    "allocatable_registers",
    "fp_reg",
    "int_reg",
    "reg_from_uid",
]
