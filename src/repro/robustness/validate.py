"""Pre-simulation validation of configurations, assignments, and traces.

Everything here runs *before* the first simulated cycle and raises a
typed :class:`~repro.errors.ConfigError` / :class:`~repro.errors.TraceError`
with machine-readable context, so a bad input never turns into a hang or
a silently wrong cycle count deep inside the event loop.

The checks mirror the structures of the paper's Section 2.1/3: the
register-to-cluster ownership map must cover the architectural namespace,
transfer buffers must exist on multicluster machines (the master/slave
protocol deadlocks without them), and every distribution plan derived
from a trace must be a well-formed master/slave pairing.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.distribution import plan_for_instruction
from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError, TraceError
from repro.ir.machine_program import MachineProgram
from repro.isa.registers import RegisterClass, all_registers
from repro.uarch.config import ProcessorConfig
from repro.workloads.trace import DynamicInstruction


def validate_trace_length(trace_length: int, benchmark: Optional[str] = None) -> None:
    """Reject non-positive (or non-integer) requested trace lengths.

    A zero-length trace produces a simulation that retires zero
    instructions in zero cycles, which later divides by zero inside
    ``speedup_percent`` — reject the request up front instead.

    Raises:
        ConfigError: when ``trace_length`` is not a positive integer.
    """
    if isinstance(trace_length, bool) or not isinstance(trace_length, int):
        raise ConfigError(
            f"trace_length must be an integer, got {type(trace_length).__name__}",
            benchmark=benchmark,
            trace_length=repr(trace_length),
        )
    if trace_length <= 0:
        raise ConfigError(
            f"trace_length must be >= 1, got {trace_length} (an empty trace "
            "simulates zero cycles and makes every speedup undefined)",
            benchmark=benchmark,
            trace_length=trace_length,
        )


def validate_config(config: ProcessorConfig) -> None:
    """Reject inconsistent machine configurations.

    Raises:
        ConfigError: with the offending field in the message/context.
    """

    def bad(message: str, **ctx) -> ConfigError:
        return ConfigError(message, config=config.name, **ctx)

    if not config.clusters:
        raise bad("configuration has no clusters")
    for width_name in ("fetch_width", "dispatch_width", "retire_width"):
        if getattr(config, width_name) < 1:
            raise bad(f"{width_name} must be >= 1", field=width_name)
    if config.memory_latency < 0:
        raise bad("memory_latency must be >= 0", field="memory_latency")
    if config.replay_threshold < 1:
        raise bad("replay_threshold must be >= 1", field="replay_threshold")
    if config.cycle_budget < 0:
        raise bad("cycle_budget must be >= 0 (0 disables)", field="cycle_budget")
    if config.progress_window < 0:
        raise bad(
            "progress_window must be >= 0 (0 disables)", field="progress_window"
        )
    for index, cluster in enumerate(config.clusters):
        if cluster.dispatch_queue_entries < 1:
            raise bad(
                "dispatch queue must hold at least one entry",
                cluster=index,
                field="dispatch_queue_entries",
            )
        if cluster.int_physical_registers < 1 or cluster.fp_physical_registers < 1:
            raise bad(
                "each cluster needs at least one physical register per class",
                cluster=index,
            )
        rules = cluster.issue
        if rules.total < 1:
            raise bad("per-cluster issue total must be >= 1", cluster=index)
        if min(rules.integer, rules.floating_point, rules.memory, rules.control) < 0:
            raise bad("per-class issue limits must be >= 0", cluster=index)
        if cluster.operand_buffer_entries < 0 or cluster.result_buffer_entries < 0:
            raise bad("transfer-buffer capacities cannot be negative", cluster=index)
        if config.num_clusters > 1 and (
            cluster.operand_buffer_entries < 1 or cluster.result_buffer_entries < 1
        ):
            # Section 2.1: dual distribution forwards operands/results through
            # these buffers; with zero entries the protocol deadlocks.
            raise bad(
                "multicluster configurations need at least one operand and one "
                "result transfer-buffer entry per cluster",
                cluster=index,
            )
        if cluster.fp_dividers < 1:
            raise bad("each cluster needs at least one FP divider", cluster=index)


def validate_assignment(
    assignment: RegisterAssignment, config: Optional[ProcessorConfig] = None
) -> None:
    """Reject register-to-cluster maps that break the ownership partition.

    The ownership map must be *total* (every architectural register owned
    by at least one cluster — guaranteed by the constructor, re-checked
    here for maps built through other paths) with every owner in range,
    and the per-cluster accessible set must fit in the cluster's physical
    register file when ``config`` is supplied.
    """
    n = assignment.num_clusters
    if n < 1:
        raise ConfigError("register assignment must cover at least one cluster")
    valid = frozenset(range(n))
    for reg in all_registers():
        owners = assignment.clusters_of(reg)
        if not owners:
            raise ConfigError(
                "register owned by no cluster (ownership must be total)",
                register=reg.name,
            )
        if not owners <= valid:
            raise ConfigError(
                "register owned by out-of-range cluster",
                register=reg.name,
                owners=sorted(owners),
                num_clusters=n,
            )
        if reg.is_zero and owners != valid:
            raise ConfigError(
                "zero register must be readable from every cluster",
                register=reg.name,
            )
    if config is not None:
        if config.num_clusters != n:
            raise ConfigError(
                f"config has {config.num_clusters} clusters but the register "
                f"assignment has {n}",
                config=config.name,
            )
        for index, cluster in enumerate(config.clusters):
            for rclass, capacity in (
                (RegisterClass.INT, cluster.int_physical_registers),
                (RegisterClass.FP, cluster.fp_physical_registers),
            ):
                accessible = sum(
                    1
                    for reg in all_registers()
                    if reg.rclass is rclass
                    and not reg.is_zero
                    and index in assignment.clusters_of(reg)
                )
                if accessible >= capacity:
                    # ``==`` is rejected too: with zero spare physical
                    # registers the rename stage can never map a new
                    # destination, so the first write to this class
                    # deadlocks dispatch on an otherwise empty machine.
                    raise ConfigError(
                        f"cluster {index} must rename {accessible} {rclass.value} "
                        f"registers (plus at least one spare) but has only "
                        f"{capacity} physical registers",
                        config=config.name,
                        cluster=index,
                    )


def validate_machine_program(program: MachineProgram) -> None:
    """Reject structurally broken machine programs before trace generation."""
    labels = set(program.labels())
    if not labels:
        raise ConfigError("machine program has no blocks", program=program.name)
    if program.entry_label not in labels:
        raise ConfigError(
            "machine program entry label does not resolve",
            program=program.name,
            entry=program.entry_label,
        )
    seen_pcs: set[int] = set()
    for block in program.blocks():
        for succ in block.succ_labels:
            if succ not in labels:
                raise ConfigError(
                    "control-flow successor names a missing block",
                    program=program.name,
                    block=block.label,
                    successor=succ,
                )
        for meta in block.meta:
            if meta.pc in seen_pcs:
                raise ConfigError(
                    "duplicate PC (assign_pcs not run or program mangled)",
                    program=program.name,
                    block=block.label,
                    pc=meta.pc,
                )
            seen_pcs.add(meta.pc)


def validate_trace(
    trace: Sequence[DynamicInstruction],
    assignment: RegisterAssignment,
    program: Optional[MachineProgram] = None,
    benchmark: Optional[str] = None,
) -> None:
    """Reject malformed or corrupted traces before simulation.

    Checks (all required by the simulator's internal protocols):

    * sequence numbers are contiguous from 0 — replay recovery rewinds
      fetch with ``fetch_index = seq + 1``, so a gap corrupts refetch;
    * every conditional branch carries its actual direction;
    * every named register is owned by at least one in-range cluster;
    * the distribution plan of every static instruction is a well-formed
      master/slave pairing (distinct, in-range clusters; forwarded operand
      indices valid; dual distribution only on multicluster machines);
    * with ``program`` supplied, each dynamic record's instruction matches
      the static instruction holding the same uid — detects operand
      corruption between scheduling and tracing.
    """

    def bad(message: str, record: DynamicInstruction, **ctx) -> TraceError:
        return TraceError(
            message,
            benchmark=benchmark,
            seq=record.seq,
            instruction=record.instr.format(),
            **ctx,
        )

    static_by_uid = {}
    if program is not None:
        for instr, _meta in program.all_instructions():
            static_by_uid[instr.uid] = instr

    n = assignment.num_clusters
    valid_clusters = frozenset(range(n))
    checked_uids: set[int] = set()
    for position, record in enumerate(trace):
        if record.seq != position:
            raise bad(
                f"sequence numbers must be contiguous from 0 "
                f"(position {position} holds seq {record.seq})",
                record,
                position=position,
            )
        instr = record.instr
        if instr.opcode.is_conditional_branch and record.taken is None:
            raise bad("conditional branch carries no direction", record)
        if static_by_uid and instr.uid >= 0:
            static = static_by_uid.get(instr.uid)
            if static is None:
                raise bad("trace names an instruction uid the program lacks", record)
            # A record holding the program's own instruction object
            # matches it by construction; only a copy can disagree.
            if static is not instr and (
                static.opcode is not instr.opcode
                or static.dest != instr.dest
                or static.srcs != instr.srcs
            ):
                raise bad(
                    "trace record disagrees with the program's instruction "
                    f"(program has {static.format()})",
                    record,
                )
        # Per-static-instruction checks, once per uid (uid -1: every record).
        if instr.uid in checked_uids:
            continue
        if instr.uid >= 0:
            checked_uids.add(instr.uid)
        for reg in instr.named_registers():
            owners = assignment.clusters_of(reg)
            if not owners or not owners <= valid_clusters:
                raise bad(
                    "operand register is not owned by any in-range cluster",
                    record,
                    register=reg.name,
                )
        plan = plan_for_instruction(instr, assignment)
        if plan.master not in valid_clusters:
            raise bad("distribution master out of range", record, master=plan.master)
        if plan.is_dual:
            if n < 2:
                raise bad(
                    "dual distribution planned on a single-cluster machine", record
                )
            if plan.slave == plan.master or plan.slave not in valid_clusters:
                raise bad(
                    "master/slave pairing malformed",
                    record,
                    master=plan.master,
                    slave=plan.slave,
                )
            for i in plan.forwarded_src_indices:
                if not 0 <= i < len(instr.srcs):
                    raise bad(
                        "forwarded operand index out of range", record, index=i
                    )


def validate_run(
    config: ProcessorConfig,
    assignment: RegisterAssignment,
    trace: Sequence[DynamicInstruction],
    program: Optional[MachineProgram] = None,
    benchmark: Optional[str] = None,
) -> None:
    """Composite pre-flight check for one simulation run."""
    validate_config(config)
    validate_assignment(assignment, config)
    if program is not None:
        validate_machine_program(program)
    validate_trace(trace, assignment, program, benchmark=benchmark)
