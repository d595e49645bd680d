"""Architectural-register-to-cluster assignment.

Section 2.1: "Each cluster is assigned a subset of the architectural
registers.  We use the term *local register* to refer to an architectural
register that has been assigned to one cluster, and the term *global
register* to refer to an architectural register that has been assigned to
both clusters."

Section 4: "the schedulers assumed that the even-numbered architectural
registers were assigned to cluster [0] and the odd-numbered registers to
cluster [1]" — that even/odd map is the default here.  The zero registers
(``r31``/``f31``) are treated as global: they are readable everywhere and
never occupy a physical register.  The stack- and global-pointer registers
are global by default (Section 2.1: "Global registers would typically be
used for stack and global pointers").

The assignment is static (the paper assumes this; dynamic reassignment is
future work).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.isa.registers import (
    GLOBAL_POINTER,
    NUM_INT_REGS,
    STACK_POINTER,
    Register,
    RegisterClass,
    all_registers,
    allocatable_registers,
)


class RegisterAssignment:
    """Maps each architectural register to the set of clusters owning it."""

    def __init__(
        self,
        num_clusters: int,
        clusters_of: dict[Register, frozenset[int]],
    ) -> None:
        self.num_clusters = num_clusters
        self._clusters_of = dict(clusters_of)
        all_clusters = frozenset(range(num_clusters))
        for reg in all_registers():
            if reg.is_zero:
                self._clusters_of[reg] = all_clusters
            elif reg not in self._clusters_of:
                raise ValueError(f"no cluster assignment for {reg}")
            elif not self._clusters_of[reg]:
                raise ValueError(f"empty cluster assignment for {reg}")

    # -------------------------------------------------------------- queries
    def clusters_of(self, reg: Register) -> frozenset[int]:
        return self._clusters_of[reg]

    def is_global(self, reg: Register) -> bool:
        return len(self._clusters_of[reg]) == self.num_clusters and self.num_clusters > 1

    def home_cluster(self, reg: Register) -> Optional[int]:
        """The unique owning cluster for a local register, else ``None``."""
        clusters = self._clusters_of[reg]
        if len(clusters) == 1:
            return next(iter(clusters))
        return None

    def local_registers(
        self, cluster: int, rclass: RegisterClass
    ) -> tuple[Register, ...]:
        """Allocatable local registers of ``rclass`` owned by ``cluster``."""
        return tuple(
            r
            for r in allocatable_registers(rclass)
            if self._clusters_of[r] == frozenset({cluster})
        )

    def global_registers(self, rclass: RegisterClass) -> tuple[Register, ...]:
        """Non-zero registers of ``rclass`` assigned to every cluster."""
        full = frozenset(range(self.num_clusters))
        return tuple(
            r
            for r in all_registers()
            if r.rclass is rclass
            and not r.is_zero
            and self._clusters_of[r] == full
        )

    def describe(self) -> str:
        """Readable summary for reports."""
        parts = [f"{self.num_clusters} cluster(s)"]
        if self.num_clusters > 1:
            for c in range(self.num_clusters):
                ints = len(self.local_registers(c, RegisterClass.INT))
                fps = len(self.local_registers(c, RegisterClass.FP))
                parts.append(f"cluster {c}: {ints} int + {fps} fp locals")
            gi = len(self.global_registers(RegisterClass.INT))
            gf = len(self.global_registers(RegisterClass.FP))
            parts.append(f"globals: {gi} int + {gf} fp")
        return "; ".join(parts)

    # ------------------------------------------------------------ factories
    @classmethod
    def single_cluster(cls) -> "RegisterAssignment":
        """Every register lives in the one cluster of a monolithic machine."""
        one = frozenset({0})
        return cls(1, {r: one for r in all_registers()})

    @classmethod
    def even_odd_dual(
        cls, extra_globals: Iterable[Register] = ()
    ) -> "RegisterAssignment":
        """The paper's default: even registers -> cluster 0, odd -> cluster 1.

        The stack and global pointers (and any ``extra_globals``) are
        assigned to both clusters.
        """
        both = frozenset({0, 1})
        globals_ = {STACK_POINTER, GLOBAL_POINTER, *extra_globals}
        mapping: dict[Register, frozenset[int]] = {}
        for reg in all_registers():
            if reg in globals_:
                mapping[reg] = both
            else:
                mapping[reg] = frozenset({reg.index % 2})
        return cls(2, mapping)

    @classmethod
    def round_robin(
        cls, num_clusters: int, extra_globals: Iterable[Register] = ()
    ) -> "RegisterAssignment":
        """The even/odd map generalized to N clusters: ``reg.index % N``.

        The stack and global pointers (and any ``extra_globals``) are
        assigned to every cluster.  ``round_robin(1)`` is the monolithic
        machine and ``round_robin(2)`` is exactly :meth:`even_odd_dual`,
        so the N-cluster design-space gym and the paper's two fixed
        machines share one assignment family.
        """
        if num_clusters < 1:
            raise ValueError(f"round_robin needs >= 1 cluster, got {num_clusters}")
        every = frozenset(range(num_clusters))
        globals_ = {STACK_POINTER, GLOBAL_POINTER, *extra_globals}
        mapping: dict[Register, frozenset[int]] = {}
        for reg in all_registers():
            if num_clusters > 1 and reg in globals_:
                mapping[reg] = every
            else:
                mapping[reg] = frozenset({reg.index % num_clusters})
        return cls(num_clusters, mapping)

    @classmethod
    def low_high_dual(
        cls, extra_globals: Iterable[Register] = ()
    ) -> "RegisterAssignment":
        """Ablation variant: registers 0..15 -> cluster 0, 16..31 -> cluster 1."""
        both = frozenset({0, 1})
        globals_ = {STACK_POINTER, GLOBAL_POINTER, *extra_globals}
        mapping: dict[Register, frozenset[int]] = {}
        half = NUM_INT_REGS // 2
        for reg in all_registers():
            if reg in globals_:
                mapping[reg] = both
            else:
                mapping[reg] = frozenset({0 if reg.index < half else 1})
        return cls(2, mapping)
