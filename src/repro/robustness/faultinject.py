"""Composable fault injectors for the robustness test matrix.

Two families:

* **Trace-level injectors** — pure functions producing a corrupted copy
  of a trace.  These model bad input data (a mangled ATOM trace file) and
  must be rejected by :func:`repro.robustness.validate.validate_trace`
  before simulation.
* **Runtime injectors** — callables installed on a live processor via
  :meth:`Processor.install_fault`; each is invoked once per cycle before
  event processing and sabotages internal state (dropped or duplicated
  transfer-buffer entries, a stuck functional unit, a dead event bus).
  The simulator must terminate with a typed
  :class:`~repro.errors.ReproError` — via the ``self_check`` invariant
  checker, the watchdog, or the deadlock guard — never hang and never
  complete with silently wrong counts.

Every runtime injector records whether it actually fired (``fired``),
so tests can assert the fault was injected and not dodged by timing.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

from repro.isa.registers import Register
from repro.workloads.trace import DynamicInstruction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.processor import Processor


# ===================================================================== traces
def corrupt_operand(
    trace: Sequence[DynamicInstruction],
    index: int,
    src_position: int,
    replacement: Register,
) -> list[DynamicInstruction]:
    """Replace one source operand of ``trace[index]`` with ``replacement``.

    Models a bit-flipped register field: the dynamic record no longer
    matches the static instruction it claims (same uid), which
    ``validate_trace(..., program=...)`` detects as a :class:`TraceError`.
    """
    corrupted = list(trace)
    victim = corrupted[index]
    srcs = list(victim.instr.srcs)
    srcs[src_position] = replacement
    mutant = dataclasses.replace(victim.instr, srcs=tuple(srcs))
    corrupted[index] = DynamicInstruction(
        mutant,
        victim.meta,
        victim.seq,
        address=victim.address,
        taken=victim.taken,
        reassign=victim.reassign,
    )
    return corrupted


def truncate_trace(
    trace: Sequence[DynamicInstruction], drop_at: int, count: int = 1
) -> list[DynamicInstruction]:
    """Drop ``count`` records starting at ``drop_at`` without renumbering.

    Models a truncated/garbled trace file: the resulting sequence-number
    gap breaks the simulator's replay-rewind contract and is rejected by
    ``validate_trace`` as a :class:`TraceError`.
    """
    return list(trace[:drop_at]) + list(trace[drop_at + count:])


# ==================================================================== runtime
class RuntimeFault:
    """Base class: armed from ``at_cycle``, fires at most once."""

    def __init__(self, at_cycle: int) -> None:
        self.at_cycle = at_cycle
        self.fired = False
        self.fired_cycle = -1

    def __call__(self, processor: "Processor", cycle: int) -> None:
        if self.fired or cycle < self.at_cycle:
            return
        if self._inject(processor, cycle):
            self.fired = True
            self.fired_cycle = cycle

    def _inject(self, processor: "Processor", cycle: int) -> bool:
        """Attempt the sabotage; return True once it actually happened."""
        raise NotImplementedError


def _buffer_of(processor: "Processor", cluster: int, kind: str):
    owner = processor.clusters[cluster]
    return owner.operand_buffer if kind == "operand" else owner.result_buffer


class DropTransferEntry(RuntimeFault):
    """Silently lose one occupied transfer-buffer entry.

    The owning master (operand buffer) or slave (result buffer) later
    issues expecting the entry; with ``self_check`` enabled the issue-time
    protocol invariant raises :class:`InvariantViolation`.
    """

    def __init__(self, at_cycle: int, cluster: int = 0, kind: str = "operand") -> None:
        super().__init__(at_cycle)
        self.cluster = cluster
        self.kind = kind
        self.dropped_seq = -1

    def _inject(self, processor: "Processor", cycle: int) -> bool:
        from repro.uarch.uop import Role, UopState

        buffer = _buffer_of(processor, self.cluster, self.kind)
        if not buffer.entries:
            return False  # stay armed until there is something to drop
        # Only drop an entry whose consumer (the master reading a forwarded
        # operand, or the slave reading a forwarded result, in this cluster)
        # has not issued yet — dropping an already-consumed, pending-free
        # entry would go unnoticed, which is not the fault being modelled.
        consumer_role = Role.MASTER if self.kind == "operand" else Role.SLAVE
        unconsumed = {
            UopState.WAITING,
            UopState.READY,
            UopState.SUSPENDED,
        }
        by_seq = {entry.seq: entry for entry in processor._rob}
        for seq in buffer.entries:
            entry = by_seq.get(seq)
            if entry is None:
                continue
            for uop in entry.uops:
                if (
                    uop.role is consumer_role
                    and uop.cluster == self.cluster
                    and uop.state in unconsumed
                ):
                    self.dropped_seq = seq
                    del buffer.entries[seq]
                    return True
        return False


class DuplicateTransferEntry(RuntimeFault):
    """Insert a bogus transfer-buffer entry owned by nobody.

    A lost squash or double allocation leaves exactly this state; the
    per-cycle ``self_check`` ownership invariant raises
    :class:`InvariantViolation` on the next cycle.
    """

    BOGUS_SEQ = 10**9

    def __init__(self, at_cycle: int, cluster: int = 0, kind: str = "operand") -> None:
        super().__init__(at_cycle)
        self.cluster = cluster
        self.kind = kind

    def _inject(self, processor: "Processor", cycle: int) -> bool:
        buffer = _buffer_of(processor, self.cluster, self.kind)
        if buffer.is_full:
            return False
        buffer.entries[self.BOGUS_SEQ] = cycle
        return True


class StuckFunctionalUnit(RuntimeFault):
    """Wedge every FP divider of one cluster (hardware fault model).

    Divide uops stay ready-but-blocked forever; the forward-progress
    watchdog raises :class:`WatchdogTimeout` after ``progress_window``
    cycles with no fetch/dispatch/issue/retire activity.
    """

    STUCK_UNTIL = 10**15

    def __init__(self, at_cycle: int, cluster: int = 0) -> None:
        super().__init__(at_cycle)
        self.cluster = cluster

    def _inject(self, processor: "Processor", cycle: int) -> bool:
        owner = processor.clusters[self.cluster]
        owner.divider_free_at = [self.STUCK_UNTIL] * len(owner.divider_free_at)
        return True


class DropPendingEvents(RuntimeFault):
    """Kill the event bus: discard all scheduled wakeups/completions.

    Stays active every cycle from ``at_cycle`` on (a dead bus does not
    recover).  In-flight instructions never complete: a single-cluster
    machine drains into the no-pending-events state and the deadlock
    guard raises :class:`SimulationError` with the diagnostic ring-buffer
    dump; a multicluster machine falls into a replay storm (squash and
    refetch forever) that the cycle-budget watchdog ends with
    :class:`WatchdogTimeout`.  Either way: typed, never a hang.
    """

    def __call__(self, processor: "Processor", cycle: int) -> None:
        if cycle < self.at_cycle:
            return
        if processor._events or processor._event_cycles:
            processor._events.clear()
            processor._event_cycles.clear()
            if not self.fired:
                self.fired = True
                self.fired_cycle = cycle

    def _inject(self, processor: "Processor", cycle: int) -> bool:  # pragma: no cover
        raise AssertionError("DropPendingEvents overrides __call__")


# ============================================================== fault plans
#
# A *fault plan* is the declarative, serializable form of an injection
# schedule: which fault, on which benchmark, during which evaluation part,
# from which cycle (or trace index), and for how many sweep attempts.  The
# chaos harness generates plans from a seeded PRNG, the evaluation harness
# applies them (see ``EvaluationOptions.fault_plan``), and replay bundles
# embed them — the same plan always rebuilds the same injectors, which is
# what makes an induced failure deterministically replayable.

#: Runtime injector kinds (installed on a live processor).
RUNTIME_FAULT_KINDS = (
    "stuck_divider",
    "drop_transfer",
    "duplicate_transfer",
    "drop_events",
)
#: Trace corruption kinds (applied to the dynamic trace before validation).
TRACE_FAULT_KINDS = ("truncate_trace", "corrupt_operand")
#: Executor-level worker faults (injected at task pickup in a supervised
#: worker, never inside the simulation): a SIGKILL'd worker, a wedged
#: worker, and a result dropped after computation (a "partitioned" worker).
WORKER_FAULT_KINDS = ("worker_kill", "worker_stall", "worker_partition")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: what, where, when, and for how long.

    ``clear_after`` models transience in *attempt* space: the fault is
    active only while ``attempt < clear_after`` (``None`` = persistent).
    A spec with ``clear_after=1`` sabotages the first attempt and lets a
    retry through clean — the shape the retry policy exists for.
    """

    kind: str
    benchmark: Optional[str] = None  # None = every benchmark
    part: Optional[str] = None       # None = every evaluation part
    #: First active cycle (runtime faults) or trace index (trace faults).
    at_cycle: int = 0
    cluster: int = 0
    buffer: str = "operand"
    #: Attempts before the fault clears; ``None`` = persistent.
    clear_after: Optional[int] = None

    def __post_init__(self) -> None:
        valid = RUNTIME_FAULT_KINDS + TRACE_FAULT_KINDS + WORKER_FAULT_KINDS
        if self.kind not in valid:
            from repro.errors import ConfigError

            raise ConfigError(
                f"unknown fault kind {self.kind!r}; valid: {valid}",
                kind=self.kind,
            )

    def active(self, benchmark: str, part: str, attempt: int) -> bool:
        if self.benchmark is not None and self.benchmark != benchmark:
            return False
        if self.part is not None and self.part != part:
            return False
        if self.clear_after is not None and attempt >= self.clear_after:
            return False
        return True

    def build_runtime(self) -> RuntimeFault:
        """Instantiate the live injector for a runtime fault spec."""
        if self.kind == "stuck_divider":
            return StuckFunctionalUnit(self.at_cycle, cluster=self.cluster)
        if self.kind == "drop_transfer":
            return DropTransferEntry(
                self.at_cycle, cluster=self.cluster, kind=self.buffer
            )
        if self.kind == "duplicate_transfer":
            return DuplicateTransferEntry(
                self.at_cycle, cluster=self.cluster, kind=self.buffer
            )
        if self.kind == "drop_events":
            return DropPendingEvents(self.at_cycle)
        raise AssertionError(f"not a runtime fault kind: {self.kind!r}")

    def apply_trace(
        self, trace: Sequence[DynamicInstruction]
    ) -> Sequence[DynamicInstruction]:
        """Apply a trace-corruption spec, returning a sabotaged copy.

        Degrades to a no-op on traces too short to corrupt — a dodged
        fault, which the chaos harness counts as benign.
        """
        if self.kind == "truncate_trace":
            if len(trace) < 3:
                return trace
            drop_at = max(1, min(self.at_cycle, len(trace) - 2))
            return truncate_trace(trace, drop_at)
        if self.kind == "corrupt_operand":
            from repro.isa.registers import int_reg

            replacement = int_reg(9)
            start = min(self.at_cycle, max(0, len(trace) - 1))
            for index in range(start, len(trace)):
                srcs = trace[index].instr.srcs
                if srcs and srcs[0] != replacement:
                    return corrupt_operand(trace, index, 0, replacement)
            return trace
        raise AssertionError(f"not a trace fault kind: {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable bundle of :class:`FaultSpec`\\ s for one sweep.

    Frozen and built from primitives only, so a plan pickles into worker
    processes, fingerprints into journal keys, and serializes into replay
    bundles without special cases.
    """

    specs: tuple[FaultSpec, ...] = ()

    def runtime_faults(
        self,
        benchmark: str,
        part: str,
        attempt: int,
        clusters: Optional[int] = None,
    ) -> list[RuntimeFault]:
        """Live injectors for the active specs.

        ``clusters`` (the target machine's cluster count) drops specs
        aimed at a cluster the machine does not have — a dodged fault,
        like a trace corruption on a too-short trace: chaos schedules
        are machine-agnostic, and a single-cluster baseline simply has
        no cluster 1 to sabotage.
        """
        return [
            spec.build_runtime()
            for spec in self.specs
            if spec.kind in RUNTIME_FAULT_KINDS
            and spec.active(benchmark, part, attempt)
            and (clusters is None or spec.cluster < clusters)
        ]

    def worker_fault(
        self, benchmark: str, part: str, dispatch: int
    ) -> Optional[str]:
        """The active worker-fault kind for this task dispatch, if any.

        ``dispatch`` is the executor's 0-based dispatch count for the
        task, so ``clear_after=1`` kills the first worker that picks the
        task up and lets the re-dispatch through clean — the transient
        worker loss the supervised executor exists to survive, while
        ``clear_after=None`` models a persistently poisoned task that
        must trip the circuit breaker.
        """
        for spec in self.specs:
            if spec.kind in WORKER_FAULT_KINDS and spec.active(
                benchmark, part, dispatch
            ):
                return spec.kind
        return None

    def apply_trace_faults(
        self,
        benchmark: str,
        part: str,
        attempt: int,
        trace: Sequence[DynamicInstruction],
    ) -> Sequence[DynamicInstruction]:
        for spec in self.specs:
            if spec.kind in TRACE_FAULT_KINDS and spec.active(
                benchmark, part, attempt
            ):
                trace = spec.apply_trace(trace)
        return trace

    def __bool__(self) -> bool:
        return bool(self.specs)

    # ------------------------------------------------------- serialization
    def as_dict(self) -> dict:
        return {"specs": [dataclasses.asdict(spec) for spec in self.specs]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            specs=tuple(FaultSpec(**spec) for spec in data.get("specs", ()))
        )
