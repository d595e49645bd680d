"""The cycle-level multicluster processor model.

One class simulates both machines of Section 4: a single-cluster
configuration degenerates to a conventional out-of-order superscalar (no
dual distribution, no transfer buffers), while a multi-cluster
configuration adds the distribution, master/slave execution, and
transfer-buffer protocols of Section 2.1.

:class:`Processor` is the reference model: it steps every cycle and is
the oracle tests hold the faster batched model (:mod:`repro.uarch.engine`)
to.  Runs build the batched model, through
:func:`repro.uarch.engine.make_processor`.

Pipeline (Section 4.1):

* **fetch** — up to 12 instructions/cycle from the I-cache, in trace
  order; a fetch group ends at a taken branch; a mispredicted conditional
  branch halts fetch until the branch executes (trace-driven simulation
  never fetches the wrong path; it charges the time the real machine
  would have wasted there).
* **distribute/rename/insert** — in order, one front-end cycle after
  fetch; an instruction (and everything younger) stalls when a dispatch
  queue entry or a physical register it needs is unavailable.
* **issue** — greedy oldest-first per cluster, bounded by Table 1's total
  and per-class limits; slave copies forwarding an operand additionally
  need an operand-transfer-buffer entry in the master's cluster, masters
  forwarding a result need a result-transfer-buffer entry in the slave's
  cluster (both checked at issue, per Section 2.1).
* **execute/writeback** — Table 1 latencies; the FP divider is not
  pipelined; loads take the load-delay slot plus D-cache/memory time;
  branch predictor tables update here (not at prediction).
* **retire** — in order, up to 8/cycle; frees previously-mapped physical
  registers.

Instruction-replay exceptions: when the oldest unretired instruction has
been ready but blocked on a full transfer buffer for
``config.replay_threshold`` consecutive cycles, every younger instruction
is squashed and refetched (Section 2.1 notes replay is "required to avoid
issue deadlock"; the exact trigger lives in the thesis [3] — this is the
simplest trigger consistent with the text).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.distribution import DistributionPlan, plan_for_instruction
from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError, SimulationError, WatchdogTimeout
from repro.isa.opcodes import InstrClass
from repro.isa.registers import RegisterClass, reg_from_uid
from repro.obs.trace import TraceRecorder
from repro.uarch.branch_predictor import McFarlingPredictor
from repro.uarch.buffers import TransferBuffer
from repro.uarch.caches import Cache
from repro.uarch.config import ClusterConfig, ProcessorConfig
from repro.uarch.rename import ClusterRename
from repro.uarch.stats import ClusterStats, SimulationStats
from repro.uarch.uop import RobEntry, Role, Uop, UopState
from repro.workloads.trace import DynamicInstruction


__all__ = [
    "Processor",
    "SimulationError",
    "SimulationResult",
    "WatchdogTimeout",
    "simulate",
]


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    config_name: str
    stats: SimulationStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class _Cluster:
    """Run-time state of one cluster."""

    def __init__(self, index: int, config: ClusterConfig, assignment: RegisterAssignment) -> None:
        self.index = index
        self.config = config
        accessible = [
            reg
            for reg in _accessible_registers(assignment, index)
        ]
        self.rename = ClusterRename(
            config.int_physical_registers, config.fp_physical_registers, accessible
        )
        self.queue_free = config.dispatch_queue_entries
        #: min-heap of (seq, phase, uop) — ready, waiting to issue.
        self.ready: list[tuple[int, int, Uop]] = []
        self.operand_buffer = TransferBuffer(
            config.operand_buffer_entries, f"operand-c{index}"
        )
        self.result_buffer = TransferBuffer(
            config.result_buffer_entries, f"result-c{index}"
        )
        self.divider_free_at = [0] * config.fp_dividers
        self.stats = ClusterStats()


def _accessible_registers(assignment: RegisterAssignment, cluster: int):
    from repro.isa.registers import all_registers

    for reg in all_registers():
        if reg.is_zero:
            continue
        if cluster in assignment.clusters_of(reg):
            yield reg


def _issue_category(iclass: InstrClass) -> str:
    if iclass.is_integer:
        return "integer"
    if iclass.is_fp:
        return "fp"
    if iclass.is_memory:
        return "memory"
    return "control"


class Processor:
    """Trace-driven, cycle-level model of a (multi)cluster processor."""

    def __init__(self, config: ProcessorConfig, assignment: RegisterAssignment) -> None:
        if config.num_clusters != assignment.num_clusters:
            raise ConfigError(
                f"config has {config.num_clusters} clusters but the register "
                f"assignment has {assignment.num_clusters}",
                config=config.name,
            )
        self.config = config
        self.assignment = assignment
        self.clusters = [
            _Cluster(i, c, assignment) for i, c in enumerate(config.clusters)
        ]
        self.predictor = McFarlingPredictor(config.predictor)
        self.icache = Cache(config.icache, config.memory_latency, "icache")
        self.dcache = Cache(config.dcache, config.memory_latency, "dcache")
        self.stats = SimulationStats(clusters=[c.stats for c in self.clusters])

        # Front end.
        self._trace: Sequence[DynamicInstruction] = ()
        self._fetch_index = 0
        self._fetch_buffer: deque[tuple[DynamicInstruction, int, bool]] = deque()
        self._fetch_stall_until = 0
        self._mispredict_block_seq: Optional[int] = None
        self._last_fetch_line = -1

        # Back end.
        self._rob: deque[RobEntry] = deque()
        self._events: dict[int, list[tuple]] = {}
        self._event_cycles: list[int] = []
        self._pending_stores: dict[int, Uop] = {}
        self._store_waiters: dict[int, list[Uop]] = {}
        self._plan_cache: dict[int, DistributionPlan] = {}
        self._homeless_next = 0
        self._max_issued_seq = -1
        self._max_dispatched_seq = -1
        # Dynamic register reassignment (Section 6 extension).
        self._reassign_ready: Optional[int] = None
        self._reassigned_seqs: set[int] = set()
        self.cycle = 0

        # Observability substrate (repro.obs).  All three default to
        # ``None`` and cost this loop one attribute load + None check
        # each when disabled; the batched model checks them once per
        # ``advance`` call and steps this loop when any is set.
        #: Optional typed event recorder for fetch/dispatch/issue/
        #: writeback/retire events — the data behind the Figure 2-5
        #: execution timelines (``TraceRecorder.memory()`` keeps them on
        #: ``recorder.events``).
        self.recorder: Optional[TraceRecorder] = None
        #: Optional per-cycle callback ``hook(processor, cycle)`` —
        #: installed by ``obs.metrics.PipelineMetrics.attach``.
        self.metrics_hook = None
        #: Optional ``obs.stall.StallAccounting`` classifying every
        #: non-issuing slot of every cycle.
        self.stall_acct = None

        # Robustness substrate.
        #: Ring buffer of the last-N pipeline events (dispatch/issue/
        #: retire/transfer per cluster) dumped when the model fails.
        self._recent: deque[tuple[int, str, int, str, int]] = deque(
            maxlen=config.diag_ring_entries
        )
        #: Runtime fault injectors (tests); called once per cycle.
        self.fault_hooks: list = []
        #: Watchdog bookkeeping: last cycle with any pipeline activity.
        self._last_progress_cycle = 0
        self._limit = 0
        if config.self_check:
            from repro.robustness.invariants import InvariantChecker

            self._invariants: Optional[InvariantChecker] = InvariantChecker(self)
        else:
            self._invariants = None

    def install_fault(self, fault) -> None:
        """Attach a runtime fault injector (see robustness.faultinject)."""
        self.fault_hooks.append(fault)

    @property
    def rob_occupancy(self) -> int:
        """In-flight (dispatched, unretired) dynamic instructions."""
        return len(self._rob)

    @property
    def fetch_buffer_occupancy(self) -> int:
        """Fetched instructions not yet inserted into a dispatch queue."""
        return len(self._fetch_buffer)

    # ================================================================= API
    def run(self, trace: Sequence[DynamicInstruction], max_cycles: int = 0) -> SimulationResult:
        """Simulate ``trace`` to completion and return the statistics."""
        self.start(trace, max_cycles)
        self.advance()
        return self.finalize()

    def start(self, trace: Sequence[DynamicInstruction], max_cycles: int = 0) -> None:
        """Arm the processor to simulate ``trace``.

        The watchdog cycle budget is ``max_cycles`` when given, else
        ``config.cycle_budget``, else a generous default derived from the
        trace length.  Use with :meth:`advance`/:meth:`finalize` to step
        a simulation in slices; :meth:`run` wraps all three.
        """
        self._trace = trace
        self._limit = (
            max_cycles or self.config.cycle_budget or (len(trace) * 100 + 100_000)
        )
        self._last_progress_cycle = self.cycle

    def advance(self, max_steps: int = 0) -> bool:
        """Step the simulation; True once the whole trace has retired.

        ``max_steps`` bounds the number of cycle steps taken in this call
        (0 = run to completion) — the stepping seam the engine-parity
        tests use to count loop steps.

        Raises:
            WatchdogTimeout: the cycle budget was exceeded, or no pipeline
                stage made forward progress for ``config.progress_window``
                cycles; carries the diagnostic ring-buffer dump.
            SimulationError: the model deadlocked (no pending events).
        """
        window = self.config.progress_window
        steps = 0
        while not self._finished():
            if max_steps and steps >= max_steps:
                return False
            self._step()
            steps += 1
            if self.cycle > self._limit:
                raise WatchdogTimeout(
                    f"exceeded cycle budget {self._limit}",
                    cycle=self.cycle,
                    seq=self._rob[0].seq if self._rob else self._fetch_index,
                    config=self.config.name,
                    diagnostics=self.diagnostic_dump(),
                )
            if window and self.cycle - self._last_progress_cycle > window:
                raise WatchdogTimeout(
                    f"no forward progress for {window} cycles "
                    "(no fetch, dispatch, issue, retire, or event activity)",
                    cycle=self.cycle,
                    seq=self._rob[0].seq if self._rob else self._fetch_index,
                    config=self.config.name,
                    diagnostics=self.diagnostic_dump(),
                )
        return True

    def finalize(self) -> SimulationResult:
        """Collect the statistics of a completed simulation."""
        self.stats.cycles = self.cycle
        self.stats.icache_accesses = self.icache.stats.accesses
        self.stats.icache_misses = self.icache.stats.misses
        self.stats.icache_merged_misses = self.icache.stats.merged_misses
        self.stats.dcache_accesses = self.dcache.stats.accesses
        self.stats.dcache_misses = self.dcache.stats.misses
        self.stats.dcache_merged_misses = self.dcache.stats.merged_misses
        self.stats.branch_predictions = self.predictor.stats.predictions
        self.stats.branch_mispredictions = self.predictor.stats.mispredictions
        for cluster in self.clusters:
            cluster.stats.operand_buffer = cluster.operand_buffer.stats
            cluster.stats.result_buffer = cluster.result_buffer.stats
        if self.stall_acct is not None:
            self.stats.stall_attribution = self.stall_acct.as_dict(self.cycle)
        return SimulationResult(self.config.name, self.stats)

    def diagnostic_dump(self) -> list[str]:
        """Post-mortem snapshot: machine state plus the recent-event ring."""
        lines = [
            f"cycle={self.cycle} fetch_index={self._fetch_index}/{len(self._trace)} "
            f"rob={len(self._rob)} fetch_buffer={len(self._fetch_buffer)} "
            f"pending_event_cycles={len(self._event_cycles)}"
        ]
        if self._rob:
            head = self._rob[0]
            copies = " ".join(
                f"{u.role.value}@c{u.cluster}:{u.state.value}" for u in head.uops
            )
            lines.append(
                f"rob head: seq={head.seq} {head.dyn.instr.format()} [{copies}]"
            )
        for cluster in self.clusters:
            lines.append(
                f"cluster {cluster.index}: queue_free={cluster.queue_free} "
                f"ready={len(cluster.ready)} "
                f"operand-buf={cluster.operand_buffer.occupancy}"
                f"/{cluster.operand_buffer.capacity} "
                f"result-buf={cluster.result_buffer.occupancy}"
                f"/{cluster.result_buffer.capacity}"
            )
        lines.append(f"last {len(self._recent)} events (cycle event seq role cluster):")
        lines.extend(
            f"  {c:>8} {event:<9} #{seq} {role}@c{cl}"
            for c, event, seq, role, cl in self._recent
        )
        return lines

    # ============================================================ main loop
    def _finished(self) -> bool:
        return (
            self._fetch_index >= len(self._trace)
            and not self._fetch_buffer
            and not self._rob
        )

    def _step(self) -> None:
        cycle = self.cycle
        for fault in self.fault_hooks:
            fault(self, cycle)
        events = self._process_events(cycle)
        for cluster in self.clusters:
            cluster.operand_buffer.tick(cycle)
            cluster.result_buffer.tick(cycle)
        retired = self._retire(cycle)
        issued_any = self._issue_all(cycle)
        dispatched = self._dispatch(cycle)
        fetched = self._fetch(cycle)
        self._check_replay(cycle)
        if events or retired or issued_any or dispatched or fetched:
            self._last_progress_cycle = cycle
        if not issued_any and not dispatched and not fetched and retired == 0:
            self._maybe_fast_forward(cycle)
        if self._invariants is not None:
            self._invariants.check_cycle(cycle)
        hook = self.metrics_hook
        if hook is not None:
            hook(self, cycle)
        self.cycle += 1

    def _maybe_fast_forward(self, cycle: int) -> None:
        """Jump to the next interesting cycle when nothing can progress.

        Only taken when no uop is ready anywhere (ready-but-blocked uops
        must keep counting toward the replay threshold cycle by cycle).
        """
        if any(c.ready for c in self.clusters):
            return
        candidates = []
        if self._event_cycles:
            candidates.append(self._event_cycles[0])
        can_fetch = (
            self._fetch_index < len(self._trace)
            and self._mispredict_block_seq is None
        )
        if can_fetch and self._fetch_stall_until > cycle:
            candidates.append(self._fetch_stall_until)
        if self._fetch_buffer:
            # Head of the fetch buffer becomes dispatchable after the
            # front-end latency.
            candidates.append(self._fetch_buffer[0][1] + self.config.frontend_depth)
        if self._reassign_ready is not None:
            candidates.append(self._reassign_ready)
        if not candidates:
            if self._finished():
                return
            raise SimulationError(
                "deadlock with no pending events",
                cycle=cycle,
                seq=self._rob[0].seq if self._rob else None,
                config=self.config.name,
                diagnostics=self.diagnostic_dump(),
            )
        target = min(candidates)
        if target > cycle + 1:
            acct = self.stall_acct
            if acct is not None:
                # The skipped cycles issue nothing; attribute their slots
                # with the same rules as a stepped idle cycle.
                acct.note_skipped(
                    target - cycle - 1,
                    [
                        c.queue_free < c.config.dispatch_queue_entries
                        for c in self.clusters
                    ],
                    self._fetch_index >= len(self._trace) and not self._fetch_buffer,
                )
            self.cycle = target - 1  # _step will +1

    # ---------------------------------------------------------------- events
    def _schedule(self, cycle: int, event: tuple) -> None:
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [event]
            heapq.heappush(self._event_cycles, cycle)
        else:
            bucket.append(event)

    def _process_events(self, cycle: int) -> int:
        processed = 0
        while self._event_cycles and self._event_cycles[0] <= cycle:
            event_cycle = heapq.heappop(self._event_cycles)
            for event in self._events.pop(event_cycle, ()):  # noqa: B909
                processed += 1
                kind = event[0]
                if kind == "complete":
                    self._complete_uop(event[1], event_cycle)
                elif kind == "wake":
                    self._wake(event[1])
                elif kind == "fetch_resume":
                    if self._mispredict_block_seq == event[1]:
                        self._mispredict_block_seq = None
                        self._fetch_stall_until = max(
                            self._fetch_stall_until, event_cycle
                        )
        return processed

    def _log(self, cycle: int, event: str, seq: int, role: str = "-", cluster: int = -1) -> None:
        self._recent.append((cycle, event, seq, role, cluster))
        recorder = self.recorder
        if recorder is not None:
            recorder.record(cycle, event, seq, role, cluster)

    def _wake(self, uop: Uop) -> None:
        """One outstanding dependency of ``uop`` resolved."""
        if uop.entry.retired or uop.entry.squashed:
            return
        if uop.state not in (UopState.WAITING, UopState.SUSPENDED):
            return
        uop.wait_count -= 1
        if uop.wait_count <= 0:
            phase = 1 if uop.state is UopState.SUSPENDED else 0
            uop.state = UopState.READY
            heapq.heappush(self.clusters[uop.cluster].ready, (uop.seq, phase, uop))

    # ---------------------------------------------------------------- fetch
    def _fetch(self, cycle: int) -> bool:
        if self._mispredict_block_seq is not None or cycle < self._fetch_stall_until:
            self.stats.fetch_stall_cycles += 1
            return False
        trace = self._trace
        n = len(trace)
        if self._fetch_index >= n:
            return False
        space = self.config.fetch_width * 2 - len(self._fetch_buffer)
        fetched = 0
        while fetched < self.config.fetch_width and space > 0 and self._fetch_index < n:
            dyn = trace[self._fetch_index]
            line = self.icache.line_of(dyn.pc)
            if line != self._last_fetch_line:
                ready = self.icache.access(dyn.pc, cycle)
                self._last_fetch_line = line
                if ready > cycle:
                    self._fetch_stall_until = ready
                    break
            predicted_taken = False
            opcode = dyn.instr.opcode
            if opcode.is_control:
                if opcode.is_conditional_branch:
                    prediction = self.predictor.predict(
                        dyn.pc, bool(dyn.taken), dyn.seq
                    )
                    predicted_taken = prediction
                    if prediction != dyn.taken:
                        # Misprediction: the real machine fetches the wrong
                        # path from here until the branch executes.
                        self._fetch_buffer.append((dyn, cycle, True))
                        self._fetch_index += 1
                        self._mispredict_block_seq = dyn.seq
                        self._last_fetch_line = -1
                        return True
                else:
                    # Unconditional flow is 100% predictable (Section 4.1)
                    # but still ends the fetch group when it redirects.
                    predicted_taken = True
            self._fetch_buffer.append((dyn, cycle, False))
            self._fetch_index += 1
            fetched += 1
            space -= 1
            if predicted_taken and dyn.taken is not False:
                self._last_fetch_line = -1
                break
        return fetched > 0

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, cycle: int) -> bool:
        budget = self.config.dispatch_width
        dispatched = False
        acct = self.stall_acct
        if acct is not None:
            acct.begin_dispatch()
        while budget > 0 and self._fetch_buffer:
            dyn, fetch_cycle, mispredicted = self._fetch_buffer[0]
            if cycle < fetch_cycle + self.config.frontend_depth:
                break
            if dyn.reassign is not None and dyn.seq not in self._reassigned_seqs:
                if not self._handle_reassignment(dyn, cycle):
                    break
            plan = self._plan_for(dyn)
            if not self._resources_available(dyn, plan):
                self.stats.dispatch_stall_cycles += 1
                break
            self._fetch_buffer.popleft()
            entry = self._make_entry(dyn, plan, fetch_cycle, cycle, mispredicted)
            for uop in entry.uops:
                self._log(cycle, "dispatch", uop.seq, uop.role.value, uop.cluster)
            self._rob.append(entry)
            budget -= len(entry.uops)
            dispatched = True
        return dispatched

    def _handle_reassignment(self, dyn: DynamicInstruction, cycle: int) -> bool:
        """Dynamic register reassignment (Section 6 extension).

        The hardware drains the pipeline (every older instruction retires),
        then moves the value of each architectural register whose cluster
        set changes (modelled at two registers per cycle plus a fixed
        overhead), then switches the map.  Returns True once the switch is
        complete and the carrier instruction may dispatch.
        """
        new_assignment: RegisterAssignment = dyn.reassign  # type: ignore[assignment]
        if self._rob:
            self.stats.reassignment_stall_cycles += 1
            return False
        if self._reassign_ready is None:
            from repro.isa.registers import all_registers

            moved = sum(
                1
                for reg in all_registers()
                if not reg.is_zero
                and self.assignment.clusters_of(reg)
                != new_assignment.clusters_of(reg)
            )
            self._reassign_ready = cycle + 4 + (moved + 1) // 2
        if cycle < self._reassign_ready:
            self.stats.reassignment_stall_cycles += 1
            return False
        # Perform the switch on the drained machine.
        self.assignment = new_assignment
        for cluster in self.clusters:
            cluster.rename = ClusterRename(
                cluster.config.int_physical_registers,
                cluster.config.fp_physical_registers,
                _accessible_registers(new_assignment, cluster.index),
            )
            cluster.ready = []
            cluster.queue_free = cluster.config.dispatch_queue_entries
        self._plan_cache.clear()
        self._pending_stores.clear()
        self._store_waiters.clear()
        self._reassign_ready = None
        self._reassigned_seqs.add(dyn.seq)
        self.stats.reassignments += 1
        return True

    def _plan_for(self, dyn: DynamicInstruction) -> DistributionPlan:
        instr = dyn.instr
        if not instr.named_registers():
            # No registers: the hardware may send it anywhere; alternate to
            # spread branch/jump traffic (config.alternate_homeless).
            preferred = self._homeless_next if self.config.alternate_homeless else 0
            self._homeless_next = (
                (self._homeless_next + 1) % self.config.num_clusters
                if self.config.alternate_homeless
                else 0
            )
            return plan_for_instruction(instr, self.assignment, preferred=preferred)
        plan = self._plan_cache.get(instr.uid)
        if plan is None:
            plan = plan_for_instruction(instr, self.assignment)
            self._plan_cache[instr.uid] = plan
        return plan

    def _note_dispatch_block(self, cause: str) -> None:
        acct = self.stall_acct
        if acct is not None:
            acct.note_dispatch_block(cause)

    def _resources_available(self, dyn: DynamicInstruction, plan: DistributionPlan) -> bool:
        instr = dyn.instr
        dest = instr.effective_dest
        master = self.clusters[plan.master]
        if master.queue_free < 1:
            master.stats.queue_full_stalls += 1
            self._note_dispatch_block("queue_full")
            return False
        master_writes = dest is not None and (plan.global_dest or not plan.result_forwarded)
        if master_writes:
            need_int = 1 if dest.rclass is RegisterClass.INT else 0
            if not master.rename.can_allocate(need_int, 1 - need_int):
                master.stats.regfile_full_stalls += 1
                self._note_dispatch_block("regfile_full")
                return False
        if plan.is_dual:
            for index in plan.slaves:
                slave = self.clusters[index]
                if slave.queue_free < 1:
                    slave.stats.queue_full_stalls += 1
                    self._note_dispatch_block("queue_full")
                    return False
                slave_writes = dest is not None and (
                    plan.global_dest or index in plan.result_receivers
                )
                if slave_writes:
                    need_int = 1 if dest.rclass is RegisterClass.INT else 0
                    if not slave.rename.can_allocate(need_int, 1 - need_int):
                        slave.stats.regfile_full_stalls += 1
                        self._note_dispatch_block("regfile_full")
                        return False
        return True

    def _make_entry(
        self,
        dyn: DynamicInstruction,
        plan: DistributionPlan,
        fetch_cycle: int,
        cycle: int,
        mispredicted: bool,
    ) -> RobEntry:
        entry = RobEntry(dyn.seq, dyn, plan)
        entry.fetch_cycle = fetch_cycle
        entry.dispatch_cycle = cycle
        instr = dyn.instr
        opcode = instr.opcode
        dest = instr.effective_dest
        # Count distribution statistics once per dynamic instruction —
        # re-dispatches after a replay squash do not inflate the counters.
        if dyn.seq > self._max_dispatched_seq:
            self._max_dispatched_seq = dyn.seq
            self.stats.by_scenario[plan.scenario] = (
                self.stats.by_scenario.get(plan.scenario, 0) + 1
            )
            if plan.is_dual:
                self.stats.dual_distributed += 1
                if plan.forwarded_src_indices:
                    self.stats.operand_forwards += 1
                if plan.result_forwarded:
                    self.stats.result_forwards += 1
        if opcode.is_conditional_branch:
            entry.branch_tag = dyn.seq
            entry.mispredicted = mispredicted

        master_cluster = self.clusters[plan.master]
        master = Uop(entry, Role.MASTER, plan.master, opcode)
        forwarded = set(plan.forwarded_src_indices)
        for i, src in enumerate(instr.srcs):
            if src.is_zero or i in forwarded:
                continue
            self._add_source(master, master_cluster, src)
        master.writes_dest = dest is not None and (
            plan.global_dest or not plan.result_forwarded
        )
        if master.writes_dest:
            self._allocate_dest(entry, master, master_cluster, dest)
        master.needs_result_entry = plan.result_forwarded
        if forwarded:
            master.intercopy_pending = True
            # One wake per shipping slave: each distinct home cluster
            # issues one slave copy that forwards its operands together.
            master.wait_count += len(set(plan.forwarded_homes))
        entry.uops.append(master)
        master_cluster.queue_free -= 1
        master_cluster.stats.peak_queue_occupancy = max(
            master_cluster.stats.peak_queue_occupancy,
            master_cluster.config.dispatch_queue_entries - master_cluster.queue_free,
        )

        if plan.is_dual:
            # One slave copy per helper cluster.  Two-cluster machines
            # always have exactly one; an N-cluster instruction naming
            # registers homed in three or more clusters gets one shipper
            # per remote source home plus result-only copies for every
            # remote destination cluster.
            for index in plan.slaves:
                slave_cluster = self.clusters[index]
                slave = Uop(entry, Role.SLAVE, index, opcode)
                own_srcs = [
                    i
                    for i, home in zip(
                        plan.forwarded_src_indices, plan.forwarded_homes
                    )
                    if home == index
                ]
                for i in own_srcs:
                    self._add_source(slave, slave_cluster, instr.srcs[i])
                slave.needs_operand_entry = bool(own_srcs)
                slave.writes_dest = dest is not None and (
                    plan.global_dest or index in plan.result_receivers
                )
                if slave.writes_dest:
                    self._allocate_dest(entry, slave, slave_cluster, dest)
                if not own_srcs:
                    # Result-only slave (scenarios 3 and 4): waits for the
                    # master's result before it can issue.
                    slave.forwards_result_only = True
                    slave.intercopy_pending = True
                    slave.wait_count += 1
                slave.partner = master
                entry.uops.append(slave)
                slave_cluster.queue_free -= 1
                slave_cluster.stats.peak_queue_occupancy = max(
                    slave_cluster.stats.peak_queue_occupancy,
                    slave_cluster.config.dispatch_queue_entries
                    - slave_cluster.queue_free,
                )
            master.partner = entry.uops[1]

        # Memory dependences: a load waits on the youngest older store to
        # the same address still in flight (perfect disambiguation with
        # store-to-load forwarding).
        if opcode.is_load and dyn.address is not None:
            dep = self._pending_stores.get(dyn.address)
            if dep is not None and not dep.entry.retired and dep.state is not UopState.DONE:
                master.store_dep = dep
                master.wait_count += 1
                self._store_waiters.setdefault(dep.seq, []).append(master)
        elif opcode.is_store and dyn.address is not None:
            self._pending_stores[dyn.address] = master

        entry.outstanding = len(entry.uops)
        for uop in entry.uops:
            if uop.wait_count == 0:
                uop.state = UopState.READY
                heapq.heappush(self.clusters[uop.cluster].ready, (uop.seq, 0, uop))
        return entry

    def _add_source(self, uop: Uop, cluster: _Cluster, src) -> None:
        rfile = cluster.rename.file_for(src)
        phys = rfile.lookup(src)
        uop.src_phys.append((src.rclass, phys))
        if not rfile.ready[phys]:
            uop.wait_count += 1
            rfile.waiters[phys].append(uop)

    def _allocate_dest(self, entry: RobEntry, uop: Uop, cluster: _Cluster, dest) -> None:
        rfile = cluster.rename.file_for(dest)
        phys, prev = rfile.allocate(dest)
        uop.dest_phys = (dest.rclass, phys)
        entry.rename_undo.append((cluster.index, dest.rclass, dest.uid, phys, prev))

    # ----------------------------------------------------------------- issue
    def _issue_all(self, cycle: int) -> bool:
        issued_any = False
        for cluster in self.clusters:
            if self._issue_cluster(cluster, cycle):
                issued_any = True
        return issued_any

    def _issue_cluster(self, cluster: _Cluster, cycle: int) -> bool:
        rules = cluster.config.issue
        remaining_total = rules.total
        remaining: dict[str, int] = {
            "integer": rules.integer,
            "fp": rules.floating_point,
            "memory": rules.memory,
            "control": rules.control,
        }
        skipped: list[tuple[int, int, Uop]] = []
        issued = 0
        class_limited = 0
        blocked_buffer = 0
        blocked_divider = 0
        ready = cluster.ready
        while ready and remaining_total > 0:
            seq, phase, uop = heapq.heappop(ready)
            if uop.entry.retired or uop.entry.squashed or uop.state is not UopState.READY:
                continue
            category = _issue_category(uop.iclass)
            if remaining[category] <= 0:
                class_limited += 1
                skipped.append((seq, phase, uop))
                continue
            blocked = self._issue_blocked(uop, cluster, cycle, phase)
            if blocked:
                if uop.blocked_on_buffer_since < 0 and blocked == "buffer":
                    uop.blocked_on_buffer_since = cycle
                if blocked == "buffer":
                    blocked_buffer += 1
                    if uop.needs_operand_entry and phase == 0:
                        buffer = self.clusters[uop.partner.cluster].operand_buffer
                    else:
                        # Master blocked on a result entry: charge the
                        # first receiver buffer that is actually full.
                        buffer = self.clusters[uop.partner.cluster].result_buffer
                        for index in uop.entry.plan.result_receivers:
                            candidate = self.clusters[index].result_buffer
                            if candidate.is_full:
                                buffer = candidate
                                break
                    buffer.stats.full_stall_cycles += 1
                else:
                    blocked_divider += 1
                skipped.append((seq, phase, uop))
                continue
            self._do_issue(uop, cluster, cycle, phase)
            remaining[category] -= 1
            remaining_total -= 1
            issued += 1
        for item in skipped:
            heapq.heappush(ready, item)
        acct = self.stall_acct
        if acct is not None:
            acct.note_issue(
                cluster.index,
                issued,
                blocked_buffer,
                blocked_divider,
                class_limited,
                occupied=cluster.queue_free < cluster.config.dispatch_queue_entries,
                draining=self._fetch_index >= len(self._trace)
                and not self._fetch_buffer,
            )
        return issued > 0

    def _issue_blocked(
        self, uop: Uop, cluster: _Cluster, cycle: int, phase: int
    ) -> Optional[str]:
        """Why ``uop`` cannot issue this cycle, or ``None`` if it can."""
        is_result_phase_slave = uop.role is Role.SLAVE and (
            uop.forwards_result_only or phase == 1
        )
        if uop.iclass is InstrClass.FP_DIVIDE:
            if uop.role is Role.MASTER and not any(
                t <= cycle for t in cluster.divider_free_at
            ):
                return "divider"
        if uop.needs_operand_entry and phase == 0 and not is_result_phase_slave:
            buf = self.clusters[uop.partner.cluster].operand_buffer
            # A sibling slave of the same instruction may already hold the
            # (shared) entry; only a buffer full of *other* instructions
            # blocks the ship.
            if buf.is_full and uop.seq not in buf.entries:
                return "buffer"
        if uop.role is Role.MASTER and uop.needs_result_entry:
            for index in uop.entry.plan.result_receivers:
                if self.clusters[index].result_buffer.is_full:
                    return "buffer"
        return None

    def _do_issue(self, uop: Uop, cluster: _Cluster, cycle: int, phase: int) -> None:
        if self._invariants is not None:
            self._invariants.check_issue(uop, cluster, cycle, phase)
        uop.state = UopState.ISSUED
        uop.issue_cycle = cycle
        uop.blocked_on_buffer_since = -1
        self._log(cycle, "issue" if phase == 0 else "reissue", uop.seq, uop.role.value, uop.cluster)
        cluster.stats.note_issue(_issue_category(uop.iclass))
        self.stats.uops_executed += 1
        if uop.seq < self._max_issued_seq:
            self.stats.issue_disorder_accum += self._max_issued_seq - uop.seq
        else:
            self._max_issued_seq = uop.seq
        self.stats.issue_disorder_samples += 1

        # Dispatch-queue entry is freed at issue (first issue only).
        if phase == 0:
            cluster.queue_free += 1

        is_operand_phase_slave = (
            uop.role is Role.SLAVE and uop.needs_operand_entry and phase == 0
        )
        is_result_phase_slave = uop.role is Role.SLAVE and (
            uop.forwards_result_only or phase == 1
        )

        if is_operand_phase_slave:
            # Slave reads the operand from its register file and ships it to
            # the master's operand transfer buffer (written at writeback).
            master_cluster = self.clusters[uop.partner.cluster]
            master_cluster.operand_buffer.allocate(uop.seq, cycle)
            # The inter-copy dependence is removed when the slave issues;
            # the master may issue as soon as the next cycle (Section 2.1).
            self._schedule(cycle + 1, ("wake", uop.partner))
            if uop.writes_dest:
                # Scenario 5: operand sent, now suspend awaiting the result.
                uop.state = UopState.SUSPENDED
                uop.wait_count = 1
                return
            # Scenario 2: the slave completes after writeback.
            self._schedule(cycle + 1, ("complete", uop))
            return

        if is_result_phase_slave:
            # Slave obtains the forwarded result, frees the result-buffer
            # entry, and writes its register file (one cycle).
            cluster.result_buffer.free_at(uop.seq, cycle + 1)
            self._schedule(cycle + 1, ("complete", uop))
            return

        # Master (or single-distributed) execution.
        latency = self._execution_latency(uop, cycle)
        done = cycle + latency
        if uop.iclass is InstrClass.FP_DIVIDE:
            for i, t in enumerate(cluster.divider_free_at):
                if t <= cycle:
                    cluster.divider_free_at[i] = done
                    break
        if (
            uop.role is Role.MASTER
            and uop.partner is not None
            and uop.entry.plan.forwarded_src_indices
        ):
            # This master consumes the forwarded operand(s): the entry in
            # its own cluster's operand buffer frees next cycle (Section
            # 2.1).  Operands shipped by different slaves of the same
            # instruction arrive as one packet and share the entry.
            cluster.operand_buffer.free_at(uop.seq, cycle + 1)
        if uop.needs_result_entry:
            # The receiver's dependence is removed two cycles before the
            # master finishes; it can issue one cycle after the master at
            # best.  Every cluster that writes the destination receives
            # the result through its own result transfer buffer.
            wake_at = max(cycle + 1, done - 1)
            for receiver in uop.entry.uops[1:]:
                if receiver.writes_dest:
                    self.clusters[receiver.cluster].result_buffer.allocate(
                        uop.seq, cycle
                    )
                    self._schedule(wake_at, ("wake", receiver))
        self._schedule(done, ("complete", uop))

    def _execution_latency(self, uop: Uop, cycle: int) -> int:
        opcode = uop.opcode
        if opcode.is_load:
            address = uop.entry.dyn.address
            if address is None:
                return self.config.latencies.latency_of(opcode)
            if uop.store_dep is not None:
                # Store-to-load forwarding: hit timing, no cache fill.
                self.dcache.stats.accesses += 1
                return self.config.latencies.latency_of(opcode)
            line_ready = self.dcache.access(address, cycle)
            return (line_ready - cycle) + self.config.latencies.latency_of(opcode)
        if opcode.is_store:
            address = uop.entry.dyn.address
            if address is not None:
                self.dcache.access(address, cycle, write=True)
            return self.config.latencies.latency_of(opcode)
        return self.config.latencies.latency_of(opcode)

    # ------------------------------------------------------------- writeback
    def _complete_uop(self, uop: Uop, cycle: int) -> None:
        entry = uop.entry
        if entry.retired or entry.squashed:  # type: ignore[attr-defined]
            return
        if uop.state is UopState.DONE:
            return
        uop.state = UopState.DONE
        uop.done_cycle = cycle
        self._log(cycle, "complete", uop.seq, uop.role.value, uop.cluster)
        if self._invariants is not None:
            self._invariants.check_writeback(uop, cycle)

        # Marking the needs-operand-entry flag consumed (master path freed
        # at issue already); slave's operand entry is freed by master issue.
        if uop.dest_phys is not None and uop.writes_dest:
            rclass, phys = uop.dest_phys
            rfile = self.clusters[uop.cluster].rename.files[rclass]
            for waiter in rfile.mark_ready(phys):
                self._wake(waiter)

        opcode = uop.opcode
        if uop.role is Role.MASTER:
            if opcode.is_conditional_branch:
                self.predictor.resolve(entry.branch_tag)
                if entry.mispredicted and self._mispredict_block_seq == entry.seq:
                    self._schedule(
                        cycle + self.config.mispredict_redirect,
                        ("fetch_resume", entry.seq),
                    )
            if opcode.is_store:
                dyn = entry.dyn
                if (
                    dyn.address is not None
                    and self._pending_stores.get(dyn.address) is uop
                ):
                    del self._pending_stores[dyn.address]
                for waiter in self._store_waiters.pop(uop.seq, ()):  # noqa: B909
                    self._wake(waiter)

        entry.outstanding -= 1

    # ---------------------------------------------------------------- retire
    def _retire(self, cycle: int) -> int:
        retired = 0
        rob = self._rob
        while rob and retired < self.config.retire_width:
            entry = rob[0]
            if not entry.completed:
                break
            rob.popleft()
            entry.retired = True
            self._log(cycle, "retire", entry.seq)
            if self._invariants is not None:
                self._invariants.check_retire(entry.seq, cycle)
            for cluster_index, rclass, _arch_uid, _phys, prev in entry.rename_undo:
                if prev is not None:
                    self.clusters[cluster_index].rename.files[rclass].release(prev)
            self.stats.instructions += 1
            retired += 1
        return retired

    # ---------------------------------------------------------------- replay
    def _check_replay(self, cycle: int) -> None:
        """Fire an instruction-replay exception when a transfer buffer is
        deadlock- or inversion-blocked (Section 2.1).

        A ready copy that has been unable to issue for
        ``replay_threshold`` consecutive cycles because a transfer buffer
        is full triggers a replay *if* at least one of the buffer's
        entries is held by a younger instruction — waiting is then not
        guaranteed to make progress (priority inversion; in the worst
        case, a true deadlock).  Entries held only by older instructions
        drain on their own, so no exception is needed.
        """
        if not self._rob:
            return
        # A uop qualifies once ``cycle - since >= replay_threshold``; the
        # integer stamp window rejects unblocked uops (since = -1) first.
        latest = cycle - self.config.replay_threshold
        clusters = self.clusters
        ready_state = UopState.READY
        for cluster in clusters:
            victim: Optional[Uop] = None
            victim_seq = 0
            for seq, phase, uop in cluster.ready:
                if (
                    0 <= uop.blocked_on_buffer_since <= latest
                    and uop.state is ready_state
                    and not uop.entry.squashed
                    and (victim is None or seq < victim_seq)
                ):
                    if phase == 0 and uop.needs_operand_entry:
                        buffer = clusters[uop.partner.cluster].operand_buffer
                    elif uop.needs_result_entry:
                        buffer = clusters[uop.partner.cluster].result_buffer
                        for index in uop.entry.plan.result_receivers:
                            candidate = clusters[index].result_buffer
                            if candidate.is_full:
                                buffer = candidate
                                break
                    else:
                        continue
                    entries = buffer.entries
                    if entries and max(entries) > seq:
                        victim = uop
                        victim_seq = seq
            if victim is not None:
                self._replay(victim.entry, cycle)
                return

    def _replay(self, survivor: RobEntry, cycle: int) -> None:
        """Instruction-replay exception: squash everything younger than
        ``survivor`` and refetch it."""
        self.stats.replay_exceptions += 1
        boundary = survivor.seq
        squashed: list[RobEntry] = []
        while self._rob and self._rob[-1].seq > boundary:
            squashed.append(self._rob.pop())
        self.stats.replay_squashed_instructions += len(squashed)

        clusters = self.clusters
        pending_stores = self._pending_stores
        store_waiters = self._store_waiters
        for entry in squashed:
            entry.squashed = True
            # Undo renames in reverse allocation order.
            for cluster_index, rclass, arch_uid, phys, prev in reversed(entry.rename_undo):
                rename = clusters[cluster_index].rename
                rfile = rename.file_int if rclass is RegisterClass.INT else rename.file_fp
                rfile.undo(reg_from_uid(arch_uid), phys, prev)
            address = entry.dyn.address
            for uop in entry.uops:
                if uop.state is UopState.WAITING or uop.state is UopState.READY:
                    clusters[uop.cluster].queue_free += 1
                if uop.iclass is InstrClass.STORE and address is not None:
                    if pending_stores.get(address) is uop:
                        del pending_stores[address]
                uop.partner = None
            # Every reader skips a squashed entry's uops, so drop the
            # entry<->uop and partner cycles (as the batched engine's
            # retire does): refcounting then frees them.
            entry.uops = []
            store_waiters.pop(entry.seq, None)
            if entry.branch_tag >= 0:
                self.predictor.abandon(entry.branch_tag)

        for cluster in self.clusters:
            cluster.operand_buffer.squash_younger(boundary)
            cluster.result_buffer.squash_younger(boundary)
            ready = [item for item in cluster.ready if item[0] <= boundary]
            heapq.heapify(ready)
            cluster.ready = ready

        # Rewind fetch to the instruction right after the survivor; the
        # trace index equals the sequence number by construction.  Pending
        # predictor state for un-dispatched (fetched) branches is dropped.
        for item in self._fetch_buffer:
            if item[0].seq > boundary and item[0].is_conditional:
                self.predictor.abandon(item[0].seq)
        self._fetch_buffer = deque(
            item for item in self._fetch_buffer if item[0].seq <= boundary
        )
        self._fetch_index = boundary + 1
        # Surviving loads waiting on a squashed store would hang (the store
        # vanished from the pending map and its waiter list was dropped):
        # clear the dependence.  Restart the blocked-cycle counters too, so
        # the next replay decision is based on post-squash behaviour.
        for entry in self._rob:
            for uop in entry.uops:
                uop.blocked_on_buffer_since = -1
                dep = uop.store_dep
                if (
                    dep is not None
                    and dep.entry.squashed
                    and uop.state is UopState.WAITING
                ):
                    uop.store_dep = None
                    self._wake(uop)
        if self._mispredict_block_seq is not None and self._mispredict_block_seq > boundary:
            self._mispredict_block_seq = None
        self._fetch_stall_until = max(
            self._fetch_stall_until,
            cycle + self.config.frontend_depth + self.config.mispredict_redirect,
        )
        self._last_fetch_line = -1


def simulate(
    trace: Sequence[DynamicInstruction],
    config: ProcessorConfig,
    assignment: Optional[RegisterAssignment] = None,
) -> SimulationResult:
    """Convenience wrapper: build a processor and run ``trace`` on it.

    The model comes from :func:`repro.uarch.engine.make_processor`
    (imported lazily; the engine module subclasses :class:`Processor`).
    """
    from repro.uarch.config import default_assignment_for
    from repro.uarch.engine import make_processor

    if assignment is None:
        assignment = default_assignment_for(config)
    return make_processor(config, assignment).run(trace)
