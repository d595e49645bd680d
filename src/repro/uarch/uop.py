"""Micro-operations: the per-cluster copies of a dynamic instruction.

A single-distributed instruction becomes one master uop.  A
dual-distributed instruction becomes a master uop (does the computation)
plus a slave uop (forwards an operand and/or receives the result) — the
copies of Section 2.1.  Uops carry all per-cluster execution state; the
shared, per-dynamic-instruction state lives in :class:`RobEntry`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.isa.opcodes import InstrClass, Opcode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distribution import DistributionPlan
    from repro.workloads.trace import DynamicInstruction


class Role(enum.Enum):
    MASTER = "master"
    SLAVE = "slave"


class UopState(enum.Enum):
    WAITING = "waiting"    # in the dispatch queue, operands outstanding
    READY = "ready"        # eligible for issue
    ISSUED = "issued"      # executing
    SUSPENDED = "suspended"  # scenario-5 slave: operand sent, awaiting result
    DONE = "done"


class Uop:
    """One cluster-local copy of a dynamic instruction."""

    __slots__ = (
        "entry",
        "role",
        "cluster",
        "opcode",
        "iclass",
        "src_phys",
        "wait_count",
        "dest_phys",
        "state",
        "issue_cycle",
        "done_cycle",
        "partner",
        "needs_operand_entry",
        "needs_result_entry",
        "writes_dest",
        "forwards_result_only",
        "intercopy_pending",
        "store_dep",
        "blocked_on_buffer_since",
        "lat0",
        "fastflags",
    )

    def __init__(
        self,
        entry: "RobEntry",
        role: Role,
        cluster: int,
        opcode: Opcode,
    ) -> None:
        self.entry = entry
        self.role = role
        self.cluster = cluster
        self.opcode = opcode
        self.iclass: InstrClass = opcode.iclass
        #: (rclass, phys index) pairs this uop reads in its own cluster.
        self.src_phys: list[tuple[object, int]] = []
        #: Outstanding wakeups (unready sources + inter-copy token + store dep).
        self.wait_count = 0
        #: (rclass, phys index) written in this cluster, if any.
        self.dest_phys: Optional[tuple[object, int]] = None
        self.state = UopState.WAITING
        self.issue_cycle = -1
        self.done_cycle = -1
        #: The other copy of a dual-distributed instruction.
        self.partner: Optional["Uop"] = None
        #: Slave forwarding operand(s): needs an operand-transfer-buffer
        #: entry in the *master's* cluster at issue.
        self.needs_operand_entry = False
        #: Master forwarding its result: needs a result-transfer-buffer
        #: entry in the *slave's* cluster at issue.
        self.needs_result_entry = False
        #: Whether this uop writes its ``dest_phys`` (masters with a local
        #: or global destination; slaves receiving a result).
        self.writes_dest = False
        #: Slave that only receives/writes the forwarded result.
        self.forwards_result_only = False
        #: True until the inter-copy dependence is removed.
        self.intercopy_pending = False
        #: Older same-address store this load must wait for.
        self.store_dep: Optional["Uop"] = None
        #: Cycle at which this (ready) uop first failed to issue because a
        #: transfer buffer was full; -1 when not blocked.
        self.blocked_on_buffer_since = -1
        #: Batched-engine dispatch recipe fields (repro.uarch.engine): the
        #: static execution latency and a bitmask of opcode properties
        #: plus the issue-category id.  The reference model leaves the
        #: defaults (it re-derives both per issue).
        self.lat0 = 0
        self.fastflags = 0

    @property
    def seq(self) -> int:
        return self.entry.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Uop #{self.seq} {self.role.value}@c{self.cluster} "
            f"{self.opcode.mnemonic} {self.state.value}>"
        )


class RobEntry:
    """Per-dynamic-instruction state shared by its uops (program order)."""

    __slots__ = (
        "seq",
        "dyn",
        "plan",
        "uops",
        "outstanding",
        "rename_undo",
        "branch_tag",
        "mispredicted",
        "fetch_cycle",
        "dispatch_cycle",
        "retired",
        "squashed",
    )

    def __init__(self, seq: int, dyn: "DynamicInstruction", plan: "DistributionPlan") -> None:
        self.seq = seq
        self.dyn = dyn
        self.plan = plan
        #: Emptied when the entry is squashed, or retires on
        #: the batched engine, so no reference cycle outlives it.
        self.uops: list[Uop] = []
        self.outstanding = 0
        #: Rename undo log: (cluster, rclass, arch_uid, new_phys, prev_phys).
        self.rename_undo: list[tuple[int, object, int, int, Optional[int]]] = []
        self.branch_tag = -1
        self.mispredicted = False
        self.fetch_cycle = -1
        self.dispatch_cycle = -1
        self.retired = False
        self.squashed = False

    @property
    def completed(self) -> bool:
        return self.outstanding == 0
