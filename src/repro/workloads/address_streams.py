"""Synthetic effective-address streams.

The paper's traces carried the memory addresses of the SPEC92 runs.  Our
workloads attach a named address stream to each static load/store; the
trace generator draws an effective address from the stream at each dynamic
execution.  The stream shapes below cover the behaviours that matter to a
64 KB two-way data cache: sequential/strided array sweeps, scattered
hash-table traffic, and small high-locality stack regions.
"""

from __future__ import annotations

import abc
import random


class AddressStream(abc.ABC):
    """A source of effective addresses for one static memory instruction."""

    #: Constructor parameters that define the stream's behaviour.  The
    #: artifact cache keys off these alone: a trace depends only on the
    #: stream's configuration, never on its mutable cursor (``reset`` runs
    #: at the start of every generation).
    _token_fields: tuple[str, ...] = ()

    @abc.abstractmethod
    def next_address(self, rng: random.Random) -> int:
        """The next effective address (8-byte aligned)."""

    def reset(self) -> None:
        """Return to the initial state (new trace)."""

    @property
    def cache_token(self) -> str:
        """Deterministic identity for artifact-cache keys."""
        params = ",".join(f"{n}={getattr(self, n)}" for n in self._token_fields)
        return f"{type(self).__name__}({params})"


class StridedStream(AddressStream):
    """Array sweep: ``base, base+stride, ...`` wrapping at ``length`` bytes.

    The vector loops of tomcatv/su2cor walk multi-megabyte arrays this way;
    with ``length`` far above the cache size every line eventually misses.
    """

    _token_fields = ('base', 'stride', 'length',)

    def __init__(self, base: int, stride: int = 8, length: int = 1 << 20) -> None:
        if stride == 0:
            raise ValueError("stride must be non-zero")
        self.base = base
        self.stride = stride
        self.length = length
        self._offset = 0

    def next_address(self, rng: random.Random) -> int:
        address = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.length
        return address & ~0x7

    def reset(self) -> None:
        self._offset = 0


class RandomStream(AddressStream):
    """Uniformly random accesses within a region (hash tables, compress)."""

    _token_fields = ('base', 'size',)

    def __init__(self, base: int, size: int) -> None:
        self.base = base
        self.size = size

    def next_address(self, rng: random.Random) -> int:
        return (self.base + rng.randrange(0, self.size)) & ~0x7


class HotColdStream(AddressStream):
    """A small hot region hit with probability ``hot_fraction``, else a
    large cold region — the locality mixture of pointer-rich integer code."""

    _token_fields = ('base', 'hot_size', 'cold_size', 'hot_fraction',)

    def __init__(
        self,
        base: int,
        hot_size: int = 4096,
        cold_size: int = 1 << 22,
        hot_fraction: float = 0.9,
    ) -> None:
        self.base = base
        self.hot_size = hot_size
        self.cold_size = cold_size
        self.hot_fraction = hot_fraction

    def next_address(self, rng: random.Random) -> int:
        if rng.random() < self.hot_fraction:
            return (self.base + rng.randrange(0, self.hot_size)) & ~0x7
        return (self.base + self.hot_size + rng.randrange(0, self.cold_size)) & ~0x7


class StackStream(AddressStream):
    """Random access within a small stack frame (very high locality)."""

    _token_fields = ('base', 'frame_size',)

    def __init__(self, base: int, frame_size: int = 512) -> None:
        self.base = base
        self.frame_size = frame_size

    def next_address(self, rng: random.Random) -> int:
        return (self.base + rng.randrange(0, self.frame_size)) & ~0x7
