"""Architectural register namespace for the Alpha-flavoured ISA.

The paper's machine model (Section 4.1) is "a RISC, superscalar processor
whose instruction set is based on the DEC Alpha instruction set": 32 integer
registers (``r0``-``r31``) and 32 floating-point registers (``f0``-``f31``).
Following the Alpha convention, ``r31`` and ``f31`` read as zero and writes
to them are discarded, ``r30`` is the stack pointer and ``r29`` is the
global pointer.  The stack- and global-pointer registers matter to the
reproduction because Section 3.1 (step 3) designates exactly their live
ranges as global-register candidates.

Registers are interned: ``int_reg(5) is int_reg(5)`` holds, so identity
checks and dictionary lookups in the simulator's hot paths stay cheap.
"""

from __future__ import annotations

import enum
from typing import Iterator

NUM_INT_REGS = 32
NUM_FP_REGS = 32

#: Index (within each class) of the always-zero register.
ZERO_INDEX = 31
#: Alpha integer register conventionally used as the stack pointer.
STACK_POINTER_INDEX = 30
#: Alpha integer register conventionally used as the global pointer.
GLOBAL_POINTER_INDEX = 29


class RegisterClass(enum.Enum):
    """The two architectural register files of the machine."""

    INT = "int"
    FP = "fp"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegisterClass.{self.name}"


class Register:
    """One architectural register (e.g. ``r4`` or ``f7``).

    Instances are interned; obtain them through :func:`int_reg`,
    :func:`fp_reg`, or :func:`reg_from_uid` rather than the constructor.

    Attributes:
        rclass: whether this is an integer or floating-point register.
        index: register number within its class, ``0..31``.
        uid: a dense unique id across both classes (``0..63``); integer
            registers occupy ``0..31`` and floating-point ``32..63``.
    """

    __slots__ = ("rclass", "index", "uid", "_name")

    def __init__(self, rclass: RegisterClass, index: int) -> None:
        if not 0 <= index < NUM_INT_REGS:
            raise ValueError(f"register index out of range: {index}")
        self.rclass = rclass
        self.index = index
        self.uid = index if rclass is RegisterClass.INT else NUM_INT_REGS + index
        prefix = "r" if rclass is RegisterClass.INT else "f"
        self._name = f"{prefix}{index}"

    @property
    def name(self) -> str:
        """Assembly-style name, e.g. ``"r4"`` or ``"f7"``."""
        return self._name

    @property
    def is_zero(self) -> bool:
        """True for ``r31``/``f31``, which always read as zero."""
        return self.index == ZERO_INDEX

    @property
    def is_stack_pointer(self) -> bool:
        return self.rclass is RegisterClass.INT and self.index == STACK_POINTER_INDEX

    @property
    def is_global_pointer(self) -> bool:
        return self.rclass is RegisterClass.INT and self.index == GLOBAL_POINTER_INDEX

    def __repr__(self) -> str:
        return self._name

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Register):
            return self.uid == other.uid
        return NotImplemented

    def __lt__(self, other: "Register") -> bool:
        return self.uid < other.uid


_INT_REGS = tuple(Register(RegisterClass.INT, i) for i in range(NUM_INT_REGS))
_FP_REGS = tuple(Register(RegisterClass.FP, i) for i in range(NUM_FP_REGS))
_ALL_REGS = _INT_REGS + _FP_REGS


def int_reg(index: int) -> Register:
    """Return the interned integer register ``r<index>``."""
    return _INT_REGS[index]


def fp_reg(index: int) -> Register:
    """Return the interned floating-point register ``f<index>``."""
    return _FP_REGS[index]


def reg_from_uid(uid: int) -> Register:
    """Return the interned register with dense id ``uid`` (``0..63``)."""
    return _ALL_REGS[uid]


STACK_POINTER = int_reg(STACK_POINTER_INDEX)
GLOBAL_POINTER = int_reg(GLOBAL_POINTER_INDEX)
INT_ZERO = int_reg(ZERO_INDEX)
FP_ZERO = fp_reg(ZERO_INDEX)


def all_registers() -> Iterator[Register]:
    """Iterate over all 64 architectural registers (int then FP)."""
    return iter(_ALL_REGS)


def allocatable_registers(rclass: RegisterClass) -> tuple[Register, ...]:
    """Registers the allocator may hand out for a class.

    Excludes the zero register, the stack pointer and the global pointer
    (the latter two carry global-candidate live ranges per Section 3.1 and
    are managed separately by the allocator).
    """
    if rclass is RegisterClass.INT:
        reserved = {ZERO_INDEX, STACK_POINTER_INDEX, GLOBAL_POINTER_INDEX}
        return tuple(r for r in _INT_REGS if r.index not in reserved)
    return tuple(r for r in _FP_REGS if r.index != ZERO_INDEX)
