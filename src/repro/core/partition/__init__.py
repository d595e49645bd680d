"""Live-range partitioning (step 4 of the Section 3.1 methodology)."""

from repro.core.partition.affinity import AffinityPartitioner
from repro.core.partition.base import Partitioner, complete_partition
from repro.core.partition.baselines import (
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.core.partition.local import LocalScheduler

__all__ = [
    "AffinityPartitioner",
    "Partitioner",
    "complete_partition",
    "RandomPartitioner",
    "RoundRobinPartitioner",
    "LocalScheduler",
]
