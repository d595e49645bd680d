"""Opcodes and instruction classes of the Alpha-flavoured ISA.

The paper's Table 1 divides instructions into the classes that govern issue
limits and functional-unit latencies: *integer multiply*, *integer other*,
*floating-point divide*, *floating-point other*, *loads & stores*, and
*control flow*.  The opcode set below is a practical Alpha-like subset that
covers every class; the simulator keys all issue rules and latencies off
:class:`InstrClass`, so the exact opcode spelling is cosmetic.
"""

from __future__ import annotations

import enum


class InstrClass(enum.Enum):
    """Instruction classes used by Table 1's issue rules and latencies."""

    INT_MULTIPLY = "int_multiply"
    INT_OTHER = "int_other"
    FP_DIVIDE = "fp_divide"
    FP_OTHER = "fp_other"
    LOAD = "load"
    STORE = "store"
    CONTROL = "control"

    def __init__(self, value: str) -> None:
        # Static facts, set once per member: the simulator and the trace
        # checks read them per dynamic instruction.
        self.is_integer = value.startswith("int_")
        self.is_fp = value.startswith("fp_")
        self.is_memory = value in ("load", "store")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"InstrClass.{self.name}"


#: Mnemonics of the opcodes with per-member facts beyond their class.
_CONDITIONAL_BRANCHES = frozenset({"beq", "bne", "blt", "bge", "fbeq", "fbne"})
_UNCONDITIONAL_BRANCHES = frozenset({"br", "jsr", "ret", "jmp"})
_FP_LOADS = frozenset({"ldt", "lds"})


class Opcode(enum.Enum):
    """Alpha-flavoured opcodes.

    The value tuple is ``(mnemonic, instruction class)``.
    """

    # --- integer arithmetic / logic (class: INT_OTHER) -------------------
    ADDQ = ("addq", InstrClass.INT_OTHER)
    SUBQ = ("subq", InstrClass.INT_OTHER)
    AND = ("and", InstrClass.INT_OTHER)
    BIS = ("bis", InstrClass.INT_OTHER)  # logical OR; also the canonical move
    XOR = ("xor", InstrClass.INT_OTHER)
    SLL = ("sll", InstrClass.INT_OTHER)
    SRL = ("srl", InstrClass.INT_OTHER)
    SRA = ("sra", InstrClass.INT_OTHER)
    CMPEQ = ("cmpeq", InstrClass.INT_OTHER)
    CMPLT = ("cmplt", InstrClass.INT_OTHER)
    CMPLE = ("cmple", InstrClass.INT_OTHER)
    LDA = ("lda", InstrClass.INT_OTHER)  # load address (add immediate)
    S4ADDQ = ("s4addq", InstrClass.INT_OTHER)  # scaled add (addressing)
    S8ADDQ = ("s8addq", InstrClass.INT_OTHER)

    # --- integer multiply (class: INT_MULTIPLY) --------------------------
    MULQ = ("mulq", InstrClass.INT_MULTIPLY)
    UMULH = ("umulh", InstrClass.INT_MULTIPLY)

    # --- floating point (class: FP_OTHER) --------------------------------
    ADDT = ("addt", InstrClass.FP_OTHER)
    SUBT = ("subt", InstrClass.FP_OTHER)
    MULT = ("mult", InstrClass.FP_OTHER)
    CPYS = ("cpys", InstrClass.FP_OTHER)  # copy sign; canonical FP move
    CMPTEQ = ("cmpteq", InstrClass.FP_OTHER)
    CMPTLT = ("cmptlt", InstrClass.FP_OTHER)
    CVTQT = ("cvtqt", InstrClass.FP_OTHER)  # int -> fp convert
    CVTTQ = ("cvttq", InstrClass.FP_OTHER)  # fp -> int convert
    SQRTT = ("sqrtt", InstrClass.FP_OTHER)

    # --- floating point divide (class: FP_DIVIDE) ------------------------
    DIVS = ("divs", InstrClass.FP_DIVIDE)  # 32-bit divide: 8-cycle latency
    DIVT = ("divt", InstrClass.FP_DIVIDE)  # 64-bit divide: 16-cycle latency

    # --- memory (classes: LOAD / STORE) -----------------------------------
    LDQ = ("ldq", InstrClass.LOAD)
    LDL = ("ldl", InstrClass.LOAD)
    LDT = ("ldt", InstrClass.LOAD)  # FP load
    LDS = ("lds", InstrClass.LOAD)
    STQ = ("stq", InstrClass.STORE)
    STL = ("stl", InstrClass.STORE)
    STT = ("stt", InstrClass.STORE)  # FP store
    STS = ("sts", InstrClass.STORE)

    # --- control flow (class: CONTROL) ------------------------------------
    BR = ("br", InstrClass.CONTROL)  # unconditional branch
    BEQ = ("beq", InstrClass.CONTROL)
    BNE = ("bne", InstrClass.CONTROL)
    BLT = ("blt", InstrClass.CONTROL)
    BGE = ("bge", InstrClass.CONTROL)
    FBEQ = ("fbeq", InstrClass.CONTROL)  # FP conditional branch
    FBNE = ("fbne", InstrClass.CONTROL)
    JSR = ("jsr", InstrClass.CONTROL)
    RET = ("ret", InstrClass.CONTROL)
    JMP = ("jmp", InstrClass.CONTROL)

    def __init__(self, mnemonic: str, iclass: InstrClass) -> None:
        self.mnemonic = mnemonic
        self.iclass = iclass
        # Static facts, set once per member: the simulator and the trace
        # checks read them per dynamic instruction.
        self.is_load = iclass is InstrClass.LOAD
        self.is_store = iclass is InstrClass.STORE
        self.is_memory = iclass.is_memory
        self.is_control = iclass is InstrClass.CONTROL
        self.is_conditional_branch = mnemonic in _CONDITIONAL_BRANCHES
        self.is_unconditional = mnemonic in _UNCONDITIONAL_BRANCHES
        #: Whether the destination register (if any) is floating point.
        self.writes_fp = iclass.is_fp or mnemonic in _FP_LOADS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


#: Opcodes usable as a register-to-register move, per class.
MOVE_OPCODES = {"int": Opcode.BIS, "fp": Opcode.CPYS}
