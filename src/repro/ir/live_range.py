"""Live ranges: the unit of cluster partitioning and register allocation.

"A useful abstraction for capturing this source of dependences is that of a
live range" (Section 3, citing Aho et al.).  A live range is a maximal web
of definitions and uses of one value that must share a register.  The local
scheduler (Section 3.5) assigns each local-candidate live range to a
cluster; the register allocator then binds each live range to an
architectural register consistent with that assignment.
"""

from __future__ import annotations

from typing import Optional

from repro.isa.registers import RegisterClass
from repro.ir.values import ILValue


class LiveRange:
    """One live range (def/use web) of an IL value.

    Attributes:
        lrid: dense id, unique within a program's web analysis.
        value: the IL value the range belongs to.
        web_index: which web of the value this is (``0`` when the value has
            a single web).
        def_uids: uids of instructions defining the range.
        use_uids: uids of instructions using the range.
        global_candidate: set by step 3 of the methodology (Section 3.1) —
            stack-pointer and global-pointer ranges are candidates for
            global registers; everything else is a local-register candidate.
        spill_weight: profile-weighted reference count, used to pick spill
            victims (lower weight spills first).
        spill_generation: >0 for ranges created by spill code, which must
            not be spilled again.
    """

    __slots__ = (
        "lrid",
        "value",
        "web_index",
        "def_uids",
        "use_uids",
        "global_candidate",
        "spill_weight",
        "spill_generation",
    )

    def __init__(
        self,
        lrid: int,
        value: ILValue,
        web_index: int = 0,
        global_candidate: bool = False,
        spill_generation: int = 0,
    ) -> None:
        self.lrid = lrid
        self.value = value
        self.web_index = web_index
        self.def_uids: set[int] = set()
        self.use_uids: set[int] = set()
        self.global_candidate = global_candidate
        self.spill_weight = 0.0
        self.spill_generation = spill_generation

    @property
    def rclass(self) -> RegisterClass:
        return self.value.rclass

    @property
    def name(self) -> str:
        if self.web_index == 0:
            return self.value.name
        return f"{self.value.name}.{self.web_index}"

    @property
    def reference_uids(self) -> set[int]:
        """All instruction uids that read or write the range."""
        return self.def_uids | self.use_uids

    def __repr__(self) -> str:
        kind = "global" if self.global_candidate else "local"
        return f"<LiveRange {self.name} ({kind}, {self.rclass.value})>"

    def __hash__(self) -> int:
        return self.lrid

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LiveRange):
            return self.lrid == other.lrid
        return NotImplemented


class LiveRangeSet:
    """The live ranges of a program plus operand->range resolution maps.

    Attributes:
        ranges: all live ranges, indexed by ``lrid``.
        def_map: ``(uid, value) -> LiveRange`` for instruction definitions.
        use_map: ``(uid, value) -> LiveRange`` for instruction uses.
    """

    def __init__(self) -> None:
        self.ranges: list[LiveRange] = []
        self.def_map: dict[tuple[int, ILValue], LiveRange] = {}
        self.use_map: dict[tuple[int, ILValue], LiveRange] = {}

    def new_range(
        self, value: ILValue, web_index: int = 0, spill_generation: int = 0
    ) -> LiveRange:
        lr = LiveRange(
            len(self.ranges), value, web_index, spill_generation=spill_generation
        )
        self.ranges.append(lr)
        return lr

    def range_named(self, name: str) -> Optional[LiveRange]:
        """Look up a live range by display name (handy in tests/examples)."""
        for lr in self.ranges:
            if lr.name == name:
                return lr
        return None

    def local_candidates(self) -> list[LiveRange]:
        return [lr for lr in self.ranges if not lr.global_candidate]

    def __iter__(self):
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)
