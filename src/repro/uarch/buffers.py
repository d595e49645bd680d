"""Operand and result transfer buffers (Section 2.1, Figure 1).

Each cluster owns one operand transfer buffer (filled by slave copies in
the *other* cluster forwarding source operands to masters here) and one
result transfer buffer (filled by masters in the other cluster forwarding
results to slaves here).  The paper keeps them separate "to reduce
implementation complexity and to reduce the number of times an
instruction-replay exception is required to free up a buffer entry".

Entries are identified by the dynamic instruction they serve; the paper's
associative search by instruction ID is a dictionary here.  Occupancy
protocol (Section 2.1 scenarios):

* operand entry — allocated when the slave issues, freed the cycle after
  the master reads it (master issue + 1);
* result entry — allocated when the master issues, freed after the slave
  reads it (slave issue + 1).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass
class BufferStats:
    allocations: int = 0
    full_stall_cycles: int = 0
    peak_occupancy: int = 0


class TransferBuffer:
    """One transfer buffer (operand or result) of one cluster."""

    def __init__(self, entries: int, name: str) -> None:
        self.capacity = entries
        self.name = name
        #: seq of the owning dynamic instruction -> allocation cycle.
        self.entries: dict[int, int] = {}
        #: min-heap of (free cycle, seq) for scheduled releases.
        self._pending_free: list[tuple[int, int]] = []
        self.stats = BufferStats()

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    @property
    def is_full(self) -> bool:
        return len(self.entries) >= self.capacity

    def allocate(self, seq: int, cycle: int) -> None:
        if seq in self.entries:
            # A later copy of the same instruction (an N-cluster plan can
            # ship operands from several slaves to one master) shares the
            # entry; the packet keeps its original allocation cycle.
            self.stats.allocations += 1
            return
        if self.is_full:
            raise RuntimeError(f"{self.name} overflow")
        self.entries[seq] = cycle
        self.stats.allocations += 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, len(self.entries))

    def free_at(self, seq: int, cycle: int) -> None:
        """Schedule entry ``seq`` to be reusable starting at ``cycle``."""
        heapq.heappush(self._pending_free, (cycle, seq))

    def tick(self, cycle: int) -> None:
        """Release every entry whose free cycle has arrived (<= ``cycle``)."""
        pending = self._pending_free
        while pending and pending[0][0] <= cycle:
            _, seq = heapq.heappop(pending)
            self.entries.pop(seq, None)

    def squash_younger(self, seq: int) -> None:
        """Drop entries owned by instructions younger than ``seq``."""
        for owner in [s for s in self.entries if s > seq]:
            del self.entries[owner]
        self._pending_free = [
            (cycle, s) for cycle, s in self._pending_free if s <= seq
        ]
        heapq.heapify(self._pending_free)
