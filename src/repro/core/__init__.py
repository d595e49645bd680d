"""The multicluster architecture's core mechanisms.

This package holds the paper's primary contribution: the register-to-
cluster assignment model, the instruction-distribution rules with the five
execution scenarios of Section 2.1, compile-time balance estimation, and
the live-range partitioners including the local scheduler of Section 3.5.
"""

from repro.core.balance import (
    DistributionStats,
    il_plan,
    imbalance_around,
    static_distribution_stats,
)
from repro.core.distribution import (
    DistributionPlan,
    Scenario,
    plan_distribution,
    plan_for_instruction,
)
from repro.core.partition import (
    AffinityPartitioner,
    LocalScheduler,
    Partitioner,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.core.registers import RegisterAssignment

__all__ = [
    "DistributionStats",
    "il_plan",
    "imbalance_around",
    "static_distribution_stats",
    "DistributionPlan",
    "Scenario",
    "plan_distribution",
    "plan_for_instruction",
    "AffinityPartitioner",
    "LocalScheduler",
    "Partitioner",
    "RandomPartitioner",
    "RoundRobinPartitioner",
    "RegisterAssignment",
]
