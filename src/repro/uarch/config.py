"""Machine configurations (Table 1 and Section 4.1).

The paper's Table 1 gives per-class issue limits and functional-unit
latencies for the 8-way single-cluster processor and the 2x4-way
dual-cluster processor.  The PDF extraction of the table is partially
garbled; DESIGN.md Section 4 records the reconstruction used here:

================  ======================  =========================
quantity          single cluster (8-way)  dual cluster (per cluster)
================  ======================  =========================
issue, total      8                       4
issue, integer    8                       4
issue, FP         4                       2
issue, load/store 4                       2
issue, control    4                       2
================  ======================  =========================

Latencies: integer multiply 6; integer other 1; FP divide 8 (32-bit,
``divs``) / 16 (64-bit, ``divt``), *not pipelined*; FP other 3; loads 1
plus a single load-delay slot (load-to-use = 2 on a hit); control flow 1.
All other units are fully pipelined.

Shared front end (Section 4.1): fetch up to 12 instructions/cycle; 64 KB
two-way set-associative I- and D-caches; inverted MSHR (no limit on
in-flight misses); 16-cycle memory fetch latency with unlimited bandwidth;
McFarling combining branch predictor updated when branches execute; 8-wide
in-order retirement; 8 operand- and 8 result-transfer-buffer entries per
cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isa.opcodes import InstrClass, Opcode
from repro.core.registers import RegisterAssignment


@dataclass(frozen=True)
class IssueRules:
    """Per-cluster, per-cycle issue limits (one row of Table 1)."""

    total: int
    integer: int
    floating_point: int
    memory: int
    control: int


@dataclass(frozen=True)
class LatencyModel:
    """Functional-unit latencies (row 3 of Table 1)."""

    int_multiply: int = 6
    int_other: int = 1
    fp_divide_32: int = 8
    fp_divide_64: int = 16
    fp_other: int = 3
    load: int = 1
    load_delay_slots: int = 1
    store: int = 1
    control: int = 1

    def latency_of(self, opcode: Opcode) -> int:
        iclass = opcode.iclass
        if iclass is InstrClass.INT_MULTIPLY:
            return self.int_multiply
        if iclass is InstrClass.INT_OTHER:
            return self.int_other
        if iclass is InstrClass.FP_DIVIDE:
            return self.fp_divide_64 if opcode is Opcode.DIVT else self.fp_divide_32
        if iclass is InstrClass.FP_OTHER:
            return self.fp_other
        if iclass is InstrClass.LOAD:
            # One load-delay slot: the value is usable latency+delay cycles
            # after issue (Table 1 footnote).
            return self.load + self.load_delay_slots
        if iclass is InstrClass.STORE:
            return self.store
        return self.control


@dataclass(frozen=True)
class CacheConfig:
    """One cache (Section 4.1: 64 KB, two-way set associative)."""

    size_bytes: int = 64 * 1024
    associativity: int = 2
    line_bytes: int = 32

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


@dataclass(frozen=True)
class PredictorConfig:
    """McFarling combining predictor (bimodal + global + chooser)."""

    bimodal_entries: int = 4096
    global_entries: int = 4096
    chooser_entries: int = 4096
    history_bits: int = 12


@dataclass(frozen=True)
class ClusterConfig:
    """Resources of one cluster."""

    dispatch_queue_entries: int = 64
    int_physical_registers: int = 64
    fp_physical_registers: int = 64
    issue: IssueRules = field(
        default_factory=lambda: IssueRules(
            total=4, integer=4, floating_point=2, memory=2, control=2
        )
    )
    operand_buffer_entries: int = 8
    result_buffer_entries: int = 8
    fp_dividers: int = 1


@dataclass(frozen=True)
class ProcessorConfig:
    """A whole machine: clusters plus the shared front end and memory."""

    name: str
    clusters: tuple[ClusterConfig, ...]
    fetch_width: int = 12
    dispatch_width: int = 12
    retire_width: int = 8
    icache: CacheConfig = field(default_factory=CacheConfig)
    dcache: CacheConfig = field(default_factory=CacheConfig)
    memory_latency: int = 16
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    latencies: LatencyModel = field(default_factory=LatencyModel)
    #: Extra cycles between a mispredicted branch's execution and useful
    #: fetch resuming (redirect).
    mispredict_redirect: int = 1
    #: Cycles the front end takes from fetch to insertion into a dispatch
    #: queue (predict at insertion; Section 4.2 footnote 2).
    frontend_depth: int = 1
    #: Consecutive stalled cycles of the oldest instruction on a full
    #: transfer buffer before an instruction-replay exception fires.
    replay_threshold: int = 8
    #: Distribution policy for instructions naming no registers.
    alternate_homeless: bool = True
    #: Opt-in per-cycle invariant checker (repro.robustness.invariants).
    #: Observational only: self-check-on and self-check-off runs produce
    #: bit-identical cycle counts.
    self_check: bool = False
    #: Watchdog cycle budget; 0 derives a generous default from the trace
    #: length (100 cycles/instruction + 100k slack).
    cycle_budget: int = 0
    #: Forward-progress watchdog: simulated cycles without any fetch,
    #: dispatch, issue, retire, or event activity before the run is
    #: declared wedged.  0 disables.  The default is far above every
    #: legitimate stall (memory latency 16, FP divide 16, replay
    #: threshold 8).
    progress_window: int = 10_000
    #: Entries in the diagnostic ring buffer of recent pipeline events
    #: dumped when the model fails.
    diag_ring_entries: int = 64

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_issue_width(self) -> int:
        return sum(c.issue.total for c in self.clusters)


SINGLE_ISSUE_RULES = IssueRules(total=8, integer=8, floating_point=4, memory=4, control=4)
DUAL_ISSUE_RULES = IssueRules(total=4, integer=4, floating_point=2, memory=2, control=2)


def single_cluster_config(name: str = "single-8way") -> ProcessorConfig:
    """The paper's 8-way single-cluster baseline: one cluster holding all
    the resources of the dual-cluster machine (128-entry queue, 128+128
    physical registers, 8-way issue)."""
    cluster = ClusterConfig(
        dispatch_queue_entries=128,
        int_physical_registers=128,
        fp_physical_registers=128,
        issue=SINGLE_ISSUE_RULES,
        operand_buffer_entries=0,
        result_buffer_entries=0,
        fp_dividers=2,
    )
    return ProcessorConfig(name=name, clusters=(cluster,))


def dual_cluster_config(name: str = "dual-4way") -> ProcessorConfig:
    """The paper's 2x4-way dual-cluster machine."""
    cluster = ClusterConfig(
        dispatch_queue_entries=64,
        int_physical_registers=64,
        fp_physical_registers=64,
        issue=DUAL_ISSUE_RULES,
        operand_buffer_entries=8,
        result_buffer_entries=8,
        fp_dividers=1,
    )
    return ProcessorConfig(name=name, clusters=(cluster, cluster))


def single_cluster_4way_config(name: str = "single-4way") -> ProcessorConfig:
    """4-way single cluster (the paper also evaluated 4-way machines)."""
    cluster = ClusterConfig(
        dispatch_queue_entries=64,
        int_physical_registers=64,
        fp_physical_registers=64,
        issue=IssueRules(total=4, integer=4, floating_point=2, memory=2, control=2),
        operand_buffer_entries=0,
        result_buffer_entries=0,
        fp_dividers=1,
    )
    return ProcessorConfig(name=name, clusters=(cluster,), fetch_width=8, retire_width=4)


def dual_cluster_2way_config(name: str = "dual-2way") -> ProcessorConfig:
    """2x2-way dual cluster (the 4-way machine's clustered counterpart)."""
    cluster = ClusterConfig(
        dispatch_queue_entries=32,
        int_physical_registers=32,
        fp_physical_registers=32,
        issue=IssueRules(total=2, integer=2, floating_point=1, memory=1, control=1),
        operand_buffer_entries=8,
        result_buffer_entries=8,
        fp_dividers=1,
    )
    return ProcessorConfig(name=name, clusters=(cluster, cluster), fetch_width=8, retire_width=4)


def with_buffer_entries(config: ProcessorConfig, entries: int) -> ProcessorConfig:
    """Ablation helper: change operand/result buffer depth on every cluster."""
    clusters = tuple(
        replace(c, operand_buffer_entries=entries, result_buffer_entries=entries)
        for c in config.clusters
    )
    return replace(config, clusters=clusters, name=f"{config.name}-buf{entries}")


def default_assignment_for(config: ProcessorConfig) -> RegisterAssignment:
    """The register-to-cluster map matching a configuration's shape.

    One cluster gets the monolithic map, two the paper's even/odd map,
    and N > 2 the modulo-N generalization (``RegisterAssignment.
    round_robin``, which coincides with even/odd at N = 2).
    """
    if config.num_clusters == 1:
        return RegisterAssignment.single_cluster()
    if config.num_clusters == 2:
        return RegisterAssignment.even_odd_dual()
    return RegisterAssignment.round_robin(config.num_clusters)
