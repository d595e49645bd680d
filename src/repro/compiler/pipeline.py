"""The six-step code-generation pipeline of Section 3.1.

1. Conventional optimization of the IL.
2. Prepass code scheduling (per basic block).
3. Designation of global-register candidates (stack/global pointer).
4. Live-range partitioning (pluggable
   :class:`~repro.core.partition.base.Partitioner`; ``None`` reproduces the
   *native binary* — cluster-oblivious allocation, Table 2 column 2).
5. Graph-colouring register allocation (global candidates to global
   registers, local candidates to their cluster's registers; spill first to
   the other cluster, then to memory).
6. Final (postpass) scheduling of the machine code including spill code.

:func:`compile_program` runs the pipeline and returns a
:class:`CompilationResult` carrying the machine program plus everything an
experiment needs to report: the partition, allocation book-keeping, and
static distribution statistics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

from repro.isa.registers import RegisterClass
from repro.ir.live_range import LiveRange, LiveRangeSet
from repro.ir.machine_program import MachineProgram
from repro.ir.program import ILProgram
from repro.compiler.lowering import lower_program
from repro.compiler.passes import optimize_program
from repro.compiler.profiling import profile_analytically, profile_by_walk
from repro.compiler.regalloc import (
    AllocationResult,
    Pool,
    allocate_registers,
)
from repro.compiler.scheduling import schedule_machine_program, schedule_program
from repro.compiler.webs import build_live_ranges, designate_global_candidates
from repro.core.balance import DistributionStats, static_distribution_stats
from repro.core.partition.base import Partitioner
from repro.core.registers import RegisterAssignment


@dataclass
class CompilerOptions:
    """Knobs for the code-generation pipeline.

    Attributes:
        optimize: run the conventional optimization passes (step 1).
        prepass_schedule: run per-block list scheduling before partitioning
            (step 2; the methodology requires it, but it is switchable for
            ablation).
        postpass_schedule: re-schedule the machine code after allocation
            (step 6).
        schedule_width: virtual issue width the list scheduler targets.
        profile: ``"analytic"`` solves the CFG flow equations,
            ``"walk"`` profiles a stochastic execution, ``"keep"`` trusts
            the counts already present on the blocks.
        profile_seed: RNG seed for ``"walk"`` profiling.
        copy_program: compile a deep copy, leaving the input IL untouched.
    """

    optimize: bool = True
    prepass_schedule: bool = True
    postpass_schedule: bool = True
    schedule_width: int = 8
    profile: str = "analytic"
    profile_seed: int = 1
    copy_program: bool = True


@dataclass
class CompilationResult:
    """Everything produced by one run of the pipeline."""

    program: ILProgram
    machine: MachineProgram
    lrs: LiveRangeSet
    allocation: AllocationResult
    assignment: RegisterAssignment
    partitioner_name: str
    partition_by_value: dict[int, int] = field(default_factory=dict)
    optimization_counts: dict[str, int] = field(default_factory=dict)
    distribution: Optional[DistributionStats] = None


def make_pool_resolver(assignment: RegisterAssignment, oblivious: bool):
    """Build the allocator's pool resolver for a register assignment.

    In oblivious mode every local candidate may use any allocatable
    register of its class (the native compiler's view); otherwise pools are
    the per-cluster register sets, with the other cluster's pool as the
    spill fallback (Section 3.4).  Global candidates always draw from the
    global registers; a class with no global registers falls back to the
    full pool (cannot happen for the default assignments, which reserve
    SP/GP).
    """
    from repro.isa.registers import GLOBAL_POINTER, STACK_POINTER, allocatable_registers

    all_int = Pool("int-all", allocatable_registers(RegisterClass.INT))
    all_fp = Pool("fp-all", allocatable_registers(RegisterClass.FP))
    if assignment.num_clusters > 1:
        global_int = Pool("int-global", assignment.global_registers(RegisterClass.INT))
        global_fp = Pool("fp-global", assignment.global_registers(RegisterClass.FP))
    else:
        # Single cluster: the stack/global pointers live in their
        # conventional registers, as a real compiler would place them.
        global_int = Pool("int-global", (STACK_POINTER, GLOBAL_POINTER))
        global_fp = Pool("fp-global", ())
    cluster_pools: dict[tuple[int, RegisterClass], Pool] = {}
    if assignment.num_clusters > 1:
        for c in range(assignment.num_clusters):
            for rclass in RegisterClass:
                cluster_pools[(c, rclass)] = Pool(
                    f"{rclass.value}-c{c}", assignment.local_registers(c, rclass)
                )

    def resolver(lr: LiveRange, cluster: Optional[int]) -> tuple[Pool, Optional[Pool]]:
        rclass = lr.rclass
        if lr.global_candidate:
            pool = global_int if rclass is RegisterClass.INT else global_fp
            if len(pool) == 0:
                pool = all_int if rclass is RegisterClass.INT else all_fp
            return pool, None
        if oblivious or assignment.num_clusters == 1 or cluster is None:
            return (all_int if rclass is RegisterClass.INT else all_fp), None
        own = cluster_pools[(cluster, rclass)]
        other = cluster_pools[((cluster + 1) % assignment.num_clusters, rclass)]
        return own, other

    return resolver


def compile_program(
    program: ILProgram,
    assignment: RegisterAssignment,
    partitioner: Optional[Partitioner] = None,
    options: Optional[CompilerOptions] = None,
) -> CompilationResult:
    """Run the six-step pipeline.

    Args:
        program: the IL program (finalized).
        assignment: the machine's architectural-register-to-cluster map.
        partitioner: live-range partitioner; ``None`` compiles the
            cluster-oblivious native binary.
        options: pipeline knobs.
    """
    options = options or CompilerOptions()
    if options.copy_program:
        program = copy.deepcopy(program)

    # Step 1: conventional optimization.
    opt_counts: dict[str, int] = {}
    if options.optimize:
        opt_counts = optimize_program(program)

    # Step 2: prepass scheduling.
    if options.prepass_schedule:
        schedule_program(program, options.schedule_width)

    # Profiling (footnote 1 of Section 3.5).
    if options.profile == "analytic":
        profile_analytically(program)
    elif options.profile == "walk":
        profile_by_walk(program, seed=options.profile_seed)
    elif options.profile != "keep":
        raise ValueError(f"unknown profile mode: {options.profile}")

    # Step 3: global-candidate designation, on fresh live ranges.
    program.renumber()
    lrs = build_live_ranges(program)
    designate_global_candidates(lrs)

    # Step 4: live-range partitioning.
    partition_by_value: dict[int, int] = {}
    partitioner_name = "none"
    distribution: Optional[DistributionStats] = None
    if partitioner is not None:
        partitioner_name = partitioner.name
        partition_by_lrid = partitioner.partition(program, lrs)
        for lr in lrs:
            cluster = partition_by_lrid.get(lr.lrid)
            if cluster is not None and lr.value.vid not in partition_by_value:
                partition_by_value[lr.value.vid] = cluster
        cluster_of = {lr.lrid: partition_by_lrid.get(lr.lrid) for lr in lrs}
        distribution = static_distribution_stats(
            program, lrs, cluster_of, assignment.num_clusters
        )

    # Step 5: register allocation (may insert spill code into `program`).
    resolver = make_pool_resolver(assignment, oblivious=partitioner is None)
    allocation = allocate_registers(
        program,
        resolver,
        cluster_by_value=partition_by_value if partitioner is not None else None,
        num_clusters=assignment.num_clusters,
    )

    # Lower to machine code; step 6: postpass scheduling.
    machine = lower_program(program, allocation)
    if options.postpass_schedule:
        schedule_machine_program(machine, options.schedule_width)

    return CompilationResult(
        program=program,
        machine=machine,
        lrs=allocation.lrs,
        allocation=allocation,
        assignment=assignment,
        partitioner_name=partitioner_name,
        partition_by_value=partition_by_value,
        optimization_counts=opt_counts,
        distribution=distribution,
    )
