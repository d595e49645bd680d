"""Baseline partitioners used for ablation against the local scheduler.

The paper's baseline ("none", Table 2 column 2) is the *native binary*
— compiled with a cluster-oblivious allocator and run as-is on the
dual-cluster machine; that is expressed in the pipeline by passing no
partitioner at all.  The partitioners here are additional reference
points: a deterministic round-robin and a seeded random assignment, each
balance-blind and dependence-blind.
"""

from __future__ import annotations

import random

from repro.ir.live_range import LiveRangeSet
from repro.ir.program import ILProgram
from repro.core.partition.base import Partitioner


class RoundRobinPartitioner(Partitioner):
    """Alternate clusters in live-range creation order."""

    name = "round-robin"

    def partition(self, program: ILProgram, lrs: LiveRangeSet) -> dict[int, int]:
        result: dict[int, int] = {}
        nxt = 0
        for lr in lrs.local_candidates():
            result[lr.lrid] = nxt
            nxt = (nxt + 1) % self.num_clusters
        return result


class RandomPartitioner(Partitioner):
    """Uniformly random assignment (seeded, reproducible)."""

    name = "random"
    _token_fields = ('seed',)

    def __init__(self, num_clusters: int = 2, seed: int = 0) -> None:
        super().__init__(num_clusters)
        self.seed = seed

    def partition(self, program: ILProgram, lrs: LiveRangeSet) -> dict[int, int]:
        rng = random.Random(self.seed)
        return {
            lr.lrid: rng.randrange(self.num_clusters)
            for lr in lrs.local_candidates()
        }
