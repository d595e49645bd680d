"""Set-associative caches with an inverted MSHR.

Section 4.1: both the 64 KB two-way I- and D-caches are non-blocking; the
data cache "is assumed to use an inverted MSHR, and thus, imposes no
restriction on the number of in-flight cache misses", and the memory
interface has a 16-cycle fetch latency and unlimited bandwidth.

The inverted-MSHR behaviour is modelled as an unbounded map from cache
line to the cycle its fill returns; accesses to a line already in flight
merge with the outstanding miss (no extra memory trip), exactly the
consequence of an inverted MSHR with unlimited bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uarch.config import CacheConfig


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    merged_misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class Cache:
    """LRU set-associative cache returning data-ready cycles."""

    def __init__(self, config: CacheConfig, memory_latency: int, name: str = "cache") -> None:
        self.config = config
        self.memory_latency = memory_latency
        self.name = name
        self.num_sets = config.num_sets
        self.line_shift = config.line_bytes.bit_length() - 1
        if config.line_bytes != 1 << self.line_shift:
            raise ValueError("line size must be a power of two")
        # Per set: list of tags, most recently used last.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        # Inverted MSHR: line id -> cycle at which the fill completes.
        self._inflight: dict[int, int] = {}
        self.stats = CacheStats()

    def line_of(self, address: int) -> int:
        return address >> self.line_shift

    def access(self, address: int, cycle: int, write: bool = False) -> int:
        """Access ``address`` at ``cycle``; returns the data-ready cycle.

        Hits return ``cycle``.  Misses return ``cycle + memory_latency``;
        if the line is already being fetched the access merges and returns
        the outstanding fill's completion cycle.  Lines are installed (and
        LRU updated) immediately — a simplification that keeps the model
        single-pass; write misses allocate, too.
        """
        self.stats.accesses += 1
        self.expire_inflight(cycle)
        line = self.line_of(address)
        index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return cycle
        self.stats.misses += 1
        ready = self._inflight.get(line)
        if ready is not None and ready > cycle:
            self.stats.merged_misses += 1
        else:
            ready = cycle + self.memory_latency
            self._inflight[line] = ready
        ways.append(tag)
        if len(ways) > self.config.associativity:
            ways.pop(0)
        return ready

    def probe(self, address: int) -> bool:
        """Non-destructive hit check (no LRU update, no fill)."""
        line = self.line_of(address)
        ways = self._sets[line % self.num_sets]
        return (line // self.num_sets) in ways

    def expire_inflight(self, cycle: int) -> None:
        """Drop completed fills from the in-flight map (housekeeping).

        Called from :meth:`access` on every lookup; the size guard keeps
        the rebuild amortized O(1), and only fills whose ready cycle has
        passed are dropped, so merge behaviour (and therefore every
        statistic) is unchanged — an expired entry would never have
        satisfied a merge anyway.
        """
        if len(self._inflight) > 4096:
            self._inflight = {
                line: ready for line, ready in self._inflight.items() if ready > cycle
            }
