"""Compile-time distribution and balance estimation.

The compiler "can only indirectly address the workload balance by seeking
to balance the dynamic distribution of instructions" (Section 3).  These
utilities estimate, from a (possibly partial) live-range partition, how IL
instructions would distribute — the model the local scheduler uses to
detect imbalance, and the reporting model for static distribution
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.ir.basic_block import BasicBlock
from repro.ir.instructions import ILInstruction
from repro.ir.live_range import LiveRangeSet
from repro.ir.program import ILProgram
from repro.core.distribution import DistributionPlan, Scenario, plan_distribution


def il_plan(
    instr: ILInstruction,
    lrs: LiveRangeSet,
    cluster_of: dict[int, Optional[int]],
    num_clusters: int = 2,
    preferred: int = 0,
) -> DistributionPlan:
    """Distribution plan for an IL instruction under a live-range partition.

    ``cluster_of`` maps lrid -> cluster; a missing/None entry is a wildcard
    (unassigned range), and global candidates are accessible everywhere.
    """
    everywhere = frozenset(range(num_clusters))
    src_sets: list[Optional[frozenset[int]]] = []
    for src in instr.srcs:
        lr = lrs.use_map.get((instr.uid, src))
        if lr is None:
            src_sets.append(None)
        elif lr.global_candidate:
            src_sets.append(everywhere)
        else:
            cluster = cluster_of.get(lr.lrid)
            src_sets.append(None if cluster is None else frozenset({cluster}))
    dest_set: Optional[frozenset[int]] = None
    if instr.dest is not None:
        lr = lrs.def_map.get((instr.uid, instr.dest))
        if lr is not None:
            if lr.global_candidate:
                dest_set = everywhere
            else:
                cluster = cluster_of.get(lr.lrid)
                dest_set = None if cluster is None else frozenset({cluster})
    return plan_distribution(src_sets, dest_set, num_clusters, preferred=preferred)


def imbalance_around(
    block: BasicBlock,
    index: int,
    lrs: LiveRangeSet,
    cluster_of: dict[int, Optional[int]],
    num_clusters: int = 2,
    scope: str = "block",
) -> int:
    """Signed distribution imbalance in the vicinity of instruction ``index``.

    Section 3.5: the distribution is unbalanced around an instruction if,
    when it is distributed, "there has been more than a given number of
    instructions distributed to one cluster than the other".  Counting is
    per block (per-basic-block estimation is mandated by Section 3.3);
    positive means cluster 0 is over-subscribed.  Instructions whose
    distribution is still undetermined (wildcard operands) and
    dual-distributed instructions (which go to both clusters) contribute
    zero.

    ``scope`` selects the estimate: ``"block"`` (default) counts the whole
    block — since blocks repeat at run time, a block's net imbalance *is*
    the per-visit run-time imbalance contribution, and the bottom-up
    traversal has already fixed the distribution of the instructions below
    ``index`` — while ``"prefix"`` counts only the instructions fetched
    before ``index`` (a strictly local reading of the paper's wording,
    kept for ablation).
    """
    instructions = block.instructions[:index] if scope == "prefix" else block.instructions
    imbalance = 0
    for instr in instructions:
        plan = il_plan(instr, lrs, cluster_of, num_clusters)
        if not plan.is_dual and _is_partially_determined(instr, lrs, cluster_of):
            imbalance += 1 if plan.master == 0 else -1
    return imbalance


def _is_partially_determined(
    instr: ILInstruction,
    lrs: LiveRangeSet,
    cluster_of: dict[int, Optional[int]],
) -> bool:
    """True when at least one local-candidate operand has a cluster.

    An instruction with one assigned operand will, with high likelihood, be
    distributed where that operand lives (the preference arm keeps chains
    together), so it already contributes to the estimated distribution.
    Instructions naming only unassigned ranges contribute nothing yet.
    """
    for src in instr.srcs:
        lr = lrs.use_map.get((instr.uid, src))
        if lr is not None and not lr.global_candidate and cluster_of.get(lr.lrid) is not None:
            return True
    if instr.dest is not None:
        lr = lrs.def_map.get((instr.uid, instr.dest))
        if lr is not None and not lr.global_candidate and cluster_of.get(lr.lrid) is not None:
            return True
    return False


@dataclass
class DistributionStats:
    """Static distribution statistics, profile-weighted.

    Attributes:
        single_per_cluster: weighted instruction count distributed solely
            to each cluster.
        dual: weighted count of dual-distributed instructions.
        by_scenario: weighted counts per execution scenario.
    """

    single_per_cluster: list[float]
    dual: float = 0.0
    by_scenario: dict[Scenario, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.single_per_cluster) + self.dual

    @property
    def dual_fraction(self) -> float:
        return self.dual / self.total if self.total else 0.0

    @property
    def balance(self) -> float:
        """1.0 = perfectly balanced single-distribution, 0.0 = one-sided."""
        total_single = sum(self.single_per_cluster)
        if total_single == 0:
            return 1.0
        return 1.0 - (max(self.single_per_cluster) - min(self.single_per_cluster)) / total_single


def static_distribution_stats(
    program: ILProgram,
    lrs: LiveRangeSet,
    cluster_of: dict[int, Optional[int]],
    num_clusters: int = 2,
) -> DistributionStats:
    """Profile-weighted distribution statistics for a partitioned program."""
    stats = DistributionStats(single_per_cluster=[0.0] * num_clusters)
    for block in program.cfg.blocks():
        weight = float(max(block.profile_count, 1))
        for instr in block.instructions:
            plan = il_plan(instr, lrs, cluster_of, num_clusters)
            stats.by_scenario[plan.scenario] = (
                stats.by_scenario.get(plan.scenario, 0.0) + weight
            )
            if plan.is_dual:
                stats.dual += weight
            else:
                stats.single_per_cluster[plan.master] += weight
    return stats
