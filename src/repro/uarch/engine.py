"""The batched struct-of-arrays simulation engine.

:class:`BatchedProcessor` is the model every simulation builds, through
:func:`make_processor`.  It subclasses the reference
:class:`~repro.uarch.processor.Processor`, which only tests construct: it
is the oracle the batched model is held to.  The two produce
**bit-identical statistics** — ``stats_fingerprint`` equality is enforced
by ``tests/uarch/test_engine_identity.py`` on the full Table 2 suite — and
the batched model runs several times faster, which is what makes
design-space sweeps far beyond the paper's two machines practical.

Where the speed comes from (DESIGN.md §14):

1. **Per-trace columns.**  ``advance`` lowers the trace into parallel arrays
   ("struct of arrays"): one column of I-cache line ids and one column of
   per-instruction flag bitmasks (control/conditional/taken/load/store/
   divide/reassign/homeless).  The columns are plain Python lists built
   once per trace by a list comprehension: element access on a list of
   small ints is the fast path of the loop, and the stats, fingerprinted
   by exact type, only ever see Python ints.
2. **Dispatch recipes.**  Everything the front end derives per dynamic
   instruction in the reference model — the distribution plan, the
   non-forwarded/forwarded source register lists, writes-dest flags, the
   issue category, the static latency — is computed once per static
   instruction and cached; dispatch replays the recipe against the rename
   tables instead of re-deriving it.
3. **A fused cycle loop.**  ``advance`` inlines the reference model's
   event/tick/retire/issue/dispatch/fetch stages into one loop with the
   hot attribute chains hoisted into locals, eliminating per-cycle and
   per-uop method-call and attribute-lookup overhead.  A run of cycles in
   which dispatch is blocked on a full dispatch queue or register file,
   nothing can issue, and fetch is quiet changes nothing but the stall
   counters (and the charges of parked uops, item 4) until the next timed
   change (an event, the end of a fetch stall, a watchdog bound, a replay
   stamp coming of age), so the loop counts the run in bulk and jumps
   over it.  The reference model steps every such cycle and is the oracle
   for the bulk counts.
4. **Parked uops.**  On a two-cluster machine a uop the issue block finds
   blocked on a full transfer buffer leaves its cluster's ready heap and
   is parked under that buffer until it has a free entry.  Only the
   uop's own cluster fills that buffer, so while it stays full every
   pop would find the uop blocked again: the loop adds the
   ``full_stall_cycles`` charges those pops would draw in one step per
   cycle instead of popping and pushing the uop back.  Parked uops go
   back on the heap before anything that reads ``cluster.ready``.
5. **A replay check over stamped uops.**  The issue block lists the uops
   it stamps with ``blocked_on_buffer_since``; the replay check scans
   only those, and only on a cycle where a stamp comes of age or a
   transfer buffer gains an entry younger than a qualifying uop charged
   to it, since nothing else can make a victim.

Why bit-identity holds: the engine *shares the reference model's state
representation* — the same clusters, rename files, transfer buffers,
caches, predictor, ROB entries, and uops — and performs the same state
transitions in the same order within every cycle.  The replay check
applies the reference rule to fewer candidates; the replay exception
itself and the cold paths (dynamic register reassignment, fast-forward,
diagnostics) run the inherited reference implementation.

The fused loop carries no hooks.  A run with any hook attached — the
event ``recorder``, ``stall_acct``, ``metrics_hook``, the invariant
self-check, or a fault injector — steps the inherited reference loop
instead, so every hook has one implementation and sees exactly what it
sees on the reference model.  Hooks attach before the run starts
(``advance`` raises :class:`~repro.errors.ConfigError` otherwise).
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from repro.core.distribution import DistributionPlan, Scenario, plan_for_instruction
from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError
from repro.isa.opcodes import InstrClass, Opcode
from repro.isa.registers import RegisterClass
from repro.uarch.config import ProcessorConfig
from repro.uarch.processor import Processor, WatchdogTimeout
from repro.uarch.uop import RobEntry, Role, Uop, UopState
from repro.workloads.trace import DynamicInstruction


__all__ = ["BatchedProcessor", "make_processor"]

# Per-instruction flag bits (the trace flag column and ``Uop.fastflags``).
F_CTRL = 1
F_COND = 2
F_TAKEN = 4       # bool(dyn.taken)
F_TNF = 8         # dyn.taken is not False (ends a predicted-taken group)
F_LOAD = 16
F_STORE = 32
F_DIV = 64
F_REASSIGN = 128
F_HOMELESS = 256  # names no registers: steered by the homeless policy

_CATEGORY = {
    InstrClass.INT_MULTIPLY: "integer",
    InstrClass.INT_OTHER: "integer",
    InstrClass.FP_DIVIDE: "fp",
    InstrClass.FP_OTHER: "fp",
    InstrClass.LOAD: "memory",
    InstrClass.STORE: "memory",
    InstrClass.CONTROL: "control",
}

#: Issue-category names indexed by the category id stored in the flag
#: bitmask at :data:`F_CAT_SHIFT` (bits above the per-instruction flags).
_CAT_NAMES = ("integer", "fp", "memory", "control")
_CAT_INDEX = {name: i for i, name in enumerate(_CAT_NAMES)}
F_CAT_SHIFT = 9

#: Scenario enum member by its integer value, for flushing the batched
#: by-scenario dispatch counts back into ``stats.by_scenario``.
_SCEN_OF = {s.value: s for s in Scenario}
_NUM_SCENARIOS = len(_SCEN_OF)

#: A cycle no run reaches.
_NEVER = 1 << 62


def make_processor(
    config: ProcessorConfig, assignment: RegisterAssignment
) -> "BatchedProcessor":
    """Build the processor model for ``config`` and ``assignment``."""
    return BatchedProcessor(config, assignment)


def _static_flags(opcode: Opcode, homeless: bool) -> int:
    iclass = opcode.iclass
    flags = 0
    if iclass is InstrClass.CONTROL:
        flags |= F_CTRL
        if opcode.is_conditional_branch:
            flags |= F_COND
    elif iclass is InstrClass.LOAD:
        flags |= F_LOAD
    elif iclass is InstrClass.STORE:
        flags |= F_STORE
    elif iclass is InstrClass.FP_DIVIDE:
        flags |= F_DIV
    if homeless:
        flags |= F_HOMELESS
    return flags


class _Recipe:
    """Everything dispatch derives from (static instruction, plan)."""

    __slots__ = (
        "plan",
        "scenario",
        "is_dual",
        "master",
        "slave",
        "m_srcs",       # master (rclass, reg uid, is_int) triples, non-forwarded
        "s_srcs",       # slave (rclass, reg uid, is_int) triples, forwarded
        "has_fwd",
        "result_fwd",
        "dest_rc",
        "dest_uid",
        "dest_is_int",
        "m_writes",
        "s_writes",
        "opcode",
        "iclass",
        "cat",
        "scen_i",
        "lat",
        "ff",
        "slaves",       # every helper cluster (plan.slaves)
        "multi",        # more than one helper (N>=3-cluster plans only)
        "s_srcs_by",    # per helper: forwarded (rclass, uid, is_int) triples
        "s_writes_by",  # per helper: writes its register-file copy
        "n_shippers",   # distinct helper clusters forwarding operands
    )

    def __init__(self, instr, plan: DistributionPlan, config: ProcessorConfig) -> None:
        opcode = instr.opcode
        dest = instr.effective_dest
        forwarded = set(plan.forwarded_src_indices)
        int_class = RegisterClass.INT
        self.plan = plan
        self.scenario = plan.scenario
        self.is_dual = plan.is_dual
        self.master = plan.master
        self.slave = plan.slave
        # The is_int booleans let dispatch pick a rename file with an
        # identity test instead of hashing the enum for a dict lookup.
        self.m_srcs = tuple(
            (src.rclass, src.uid, src.rclass is int_class)
            for i, src in enumerate(instr.srcs)
            if not src.is_zero and i not in forwarded
        )
        self.s_srcs = tuple(
            (instr.srcs[i].rclass, instr.srcs[i].uid, instr.srcs[i].rclass is int_class)
            for i in plan.forwarded_src_indices
        )
        self.has_fwd = bool(plan.forwarded_src_indices)
        self.result_fwd = plan.result_forwarded
        self.dest_rc = None if dest is None else dest.rclass
        self.dest_uid = -1 if dest is None else dest.uid
        self.dest_is_int = dest is not None and dest.rclass is int_class
        self.m_writes = dest is not None and (plan.global_dest or not plan.result_forwarded)
        self.s_writes = dest is not None and (plan.global_dest or plan.result_forwarded)
        self.slaves = plan.slaves
        self.multi = len(plan.slaves) > 1
        self.s_srcs_by = tuple(
            tuple(
                (
                    instr.srcs[i].rclass,
                    instr.srcs[i].uid,
                    instr.srcs[i].rclass is int_class,
                )
                for i, home in zip(plan.forwarded_src_indices, plan.forwarded_homes)
                if home == sc
            )
            for sc in plan.slaves
        )
        self.s_writes_by = tuple(
            dest is not None and (plan.global_dest or sc in plan.result_receivers)
            for sc in plan.slaves
        )
        self.n_shippers = len(set(plan.forwarded_homes))
        self.opcode = opcode
        self.iclass = opcode.iclass
        self.cat = _CATEGORY[opcode.iclass]
        self.scen_i = plan.scenario.value
        self.lat = config.latencies.latency_of(opcode)
        # Flag bits plus the issue-category id in the bits above them, so
        # the issue loop indexes its per-class limit list with a shift
        # instead of hashing the category name.
        self.ff = (_static_flags(opcode, False) & ~F_HOMELESS) | (
            _CAT_INDEX[self.cat] << F_CAT_SHIFT
        )


class BatchedProcessor(Processor):
    """Struct-of-arrays engine; bit-identical to :class:`Processor`.

    Shares every piece of machine state with the reference model and
    overrides only ``advance`` (the fused loop, which builds the trace
    columns on first use), the dispatch front end (recipes) and the
    replay check (:meth:`_replay_victim`).  The replay exception, cold
    paths — reassignment, fast-forward, diagnostics — and every hooked
    run take the inherited reference code on the shared state.
    """

    def __init__(self, config: ProcessorConfig, assignment: RegisterAssignment) -> None:
        super().__init__(config, assignment)
        #: Trace columns (built by :meth:`advance`): I-cache line id and
        #: flag bitmask per trace position.
        self._col_trace: Optional[Sequence[DynamicInstruction]] = None
        self._col_lines: list[int] = []
        self._col_flags: list[int] = []
        #: Dispatch recipes keyed by ``instr.uid`` for register-naming
        #: instructions (one plan per static instruction, as in
        #: ``_plan_cache``) and ``(id(instr), preferred)`` for homeless
        #: ones.  Cleared on reassignment.
        self._recipes: dict = {}
        #: Per cluster: ``(stamp cycle, ready-heap item)`` for each uop the
        #: fused loop stamped with ``blocked_on_buffer_since``, in stamping
        #: (so cycle) order.  The replay check scans these instead of every
        #: ready item; entries whose uop has since issued are pruned by the
        #: scan, and a replay (which resets every stamp) clears the lists.
        self._stamped: list[list] = [[] for _ in self.clusters]
        #: Per cluster: buffer-blocked ready-heap items parked off the
        #: heap, keyed by the full transfer buffer each is charged to
        #: (two-cluster machines only).  Every ``ready`` reader sees them
        #: back in the heap: see :meth:`_unpark`.
        self._parked: list[dict] = [{} for _ in self.clusters]
        #: Transfer buffer -> the lowest ``seq`` of the uops charged to it
        #: that qualified for replay at the last scan that found no
        #: victim (:meth:`_replay_victim`).  Only an entry younger than
        #: that ``seq`` can make a victim before the next stamp comes of
        #: age.
        self._replay_watch: dict = {}

    # ------------------------------------------------------------- plumbing
    def _handle_reassignment(self, dyn: DynamicInstruction, cycle: int) -> bool:
        self._unpark()
        done = super()._handle_reassignment(dyn, cycle)
        if done:
            # The parent cleared _plan_cache; recipes embed those plans
            # (and the old assignment's steering), so they go too.
            self._recipes.clear()
        return done

    def _replay(self, survivor: RobEntry, cycle: int) -> None:
        self._unpark()
        super()._replay(survivor, cycle)
        # The parent reset blocked_on_buffer_since on every surviving uop;
        # squashed uops (which may still carry a stamp) never issue.
        for stamped in self._stamped:
            stamped.clear()
        self._replay_watch.clear()

    def _unpark(self) -> None:
        """Return every parked uop to its cluster's ready heap.

        Called before any code that reads ``cluster.ready`` (replay,
        reassignment, a watchdog dump) and when ``advance`` returns, so
        outside the fused issue block the heaps hold exactly what the
        reference model's would.
        """
        for cluster, parked in zip(self.clusters, self._parked):
            if parked:
                ready = cluster.ready
                for items in parked.values():
                    for item in items:
                        heapq.heappush(ready, item)
                parked.clear()

    def _replay_victim(self, cycle: int) -> tuple[Optional[Uop], int]:
        """The uop :meth:`Processor._check_replay` would replay, and when
        to look again.

        Same rule and the same cluster order, but only stamped uops old
        enough to qualify are scanned (an unstamped uop never qualifies),
        and each buffer's newest entry is computed once.

        With no victim, the second value is the first cycle at which a
        stamped uop starts to qualify, and ``_replay_watch`` maps each
        buffer a qualifying uop is charged to to the lowest such ``seq``.
        Before that cycle, on two clusters, only a new entry younger than
        its buffer's watch ``seq`` can make a victim: a qualifying uop's
        buffer is fixed, and the buffer's newest entry only changes by
        allocation.  With more clusters the buffer charged for a result
        can change as receiver buffers drain, so qualifying uops are
        looked at again next cycle.
        """
        threshold = self.config.replay_threshold
        latest = cycle - threshold
        clusters = self.clusters
        ready_state = UopState.READY
        newest: dict = {}
        watch = self._replay_watch
        watch.clear()
        due = _NEVER
        for stamped in self._stamped:
            if not stamped:
                continue
            if stamped[0][0] > latest:
                due = min(due, stamped[0][0] + threshold)
                continue
            # Drop uops that issued since they were stamped.
            stamped[:] = [s for s in stamped if s[1][2].blocked_on_buffer_since >= 0]
            if stamped and len(clusters) > 2:
                due = cycle + 1
            victim: Optional[Uop] = None
            victim_seq = 0
            for since, (seq, phase, uop) in stamped:
                if since > latest:
                    # Stamped in cycle order: the rest are younger.
                    due = min(due, since + threshold)
                    break
                if (
                    uop.state is ready_state
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
                    top = newest.get(buffer)
                    if top is None:
                        entries = buffer.entries
                        top = newest[buffer] = max(entries) if entries else -1
                    if top > seq:
                        victim = uop
                        victim_seq = seq
                    elif seq < watch.get(buffer, _NEVER):
                        watch[buffer] = seq
            if victim is not None:
                return victim, due
        return None, due

    def _build_columns(self, trace: Sequence[DynamicInstruction]) -> None:
        shift = self.icache.line_shift
        lines = [dyn.meta.pc >> shift for dyn in trace]
        static: dict[int, int] = {}
        flags = []
        append = flags.append
        for dyn in trace:
            instr = dyn.instr
            key = id(instr)
            base = static.get(key)
            if base is None:
                base = _static_flags(instr.opcode, not instr.named_registers())
                static[key] = base
            taken = dyn.taken
            if taken:
                base |= F_TAKEN | F_TNF
            elif taken is not False:
                base |= F_TNF
            if dyn.reassign is not None:
                base |= F_REASSIGN
            append(base)
        self._col_trace = trace
        self._col_lines = lines
        self._col_flags = flags

    def _recipe_for(self, instr, flags: int) -> _Recipe:
        recipes = self._recipes
        if flags & F_HOMELESS:
            # Mirror Processor._plan_for: the homeless pointer advances on
            # every dispatch *attempt*, including ones that then stall.
            if self.config.alternate_homeless:
                preferred = self._homeless_next
                self._homeless_next = (preferred + 1) % self.config.num_clusters
            else:
                preferred = 0
                self._homeless_next = 0
            # Keyed by instruction identity (not opcode) so the lookup
            # hashes plain ints; a homeless recipe depends only on
            # (opcode, preferred), so extra per-instruction entries are
            # redundant but harmless and bounded by the static program.
            key = (id(instr), preferred)
            recipe = recipes.get(key)
            if recipe is None:
                plan = plan_for_instruction(instr, self.assignment, preferred=preferred)
                recipe = _Recipe(instr, plan, self.config)
                recipes[key] = recipe
            return recipe
        plan = self._plan_cache.get(instr.uid)
        if plan is None:
            plan = plan_for_instruction(instr, self.assignment)
            self._plan_cache[instr.uid] = plan
        recipe = recipes[instr.uid] = _Recipe(instr, plan, self.config)
        return recipe

    # ------------------------------------------------------------ fused loop
    def advance(self, max_steps: int = 0) -> bool:  # noqa: C901 - deliberately fused
        trace = self._trace
        if (
            self.recorder is not None
            or self.stall_acct is not None
            or self.metrics_hook is not None
            or self._invariants is not None
            or self.fault_hooks
        ):
            if self._col_trace is trace:
                # The fused loop already stepped this run; its in-flight
                # state (4-field fetch entries, parked uops) is not the reference's.
                raise ConfigError(
                    "attach hooks before the run starts, not between advance() calls",
                    config=self.config.name,
                )
            return super().advance(max_steps)
        if self._col_trace is not trace:
            self._build_columns(trace)

        # --- hoisted invariants of this machine -------------------------
        config = self.config
        clusters = self.clusters
        nclusters = len(clusters)
        dual = nclusters > 1
        stats = self.stats
        icache = self.icache
        dcache = self.dcache
        dcache_stats = dcache.stats
        predictor = self.predictor
        trace_len = len(trace)
        lines = self._col_lines
        flags_col = self._col_flags
        fetch_width = config.fetch_width
        fetch_cap = fetch_width * 2
        dispatch_width = config.dispatch_width
        retire_width = config.retire_width
        frontend_depth = config.frontend_depth
        mispredict_redirect = config.mispredict_redirect
        window = config.progress_window
        replay_threshold = config.replay_threshold
        limit = self._limit
        heappush = heapq.heappush
        heappop = heapq.heappop
        MASTER = Role.MASTER
        SLAVE = Role.SLAVE
        RC_INT = RegisterClass.INT
        new_uop = Uop.__new__
        new_entry = RobEntry.__new__
        recipes_get = self._recipes.get        # dict cleared in place
        WAITING = UopState.WAITING
        READY = UopState.READY
        ISSUED = UopState.ISSUED
        SUSPENDED = UopState.SUSPENDED
        DONE = UopState.DONE
        # Per-cluster issue state: the per-class limit template (indexed by
        # category id, copied each cycle), a per-advance accumulator of
        # issued-by-class counts (flushed into ClusterStats by flush()),
        # the parked map and stamped list (see __init__), and the seq at
        # which each category last ran out (read only in a cycle in which
        # it ran out, so never reset).
        parked_by = self._parked
        stamped_by = self._stamped
        replay_watch = self._replay_watch  # cleared in place
        # Parking needs the buffer a blocked uop is charged to to be fixed
        # and filled only by its own cluster's issue: true with two
        # clusters.  With more, a sibling slave can put the uop's own seq
        # into the buffer mid-cycle, and the charged receiver can change.
        park = nclusters == 2
        issue_templates = [
            (
                cl,
                cl.config.issue.total,
                [
                    cl.config.issue.integer,
                    cl.config.issue.floating_point,
                    cl.config.issue.memory,
                    cl.config.issue.control,
                ],
                [0, 0, 0, 0],
                parked_by[i],
                stamped_by[i],
                [0, 0, 0, 0],
            )
            for i, cl in enumerate(clusters)
        ]

        # D-cache internals for the inlined load/store hit path (the
        # inline mirrors Cache.access exactly, batched counters aside).
        d_sets = dcache._sets
        d_nsets = dcache.num_sets
        d_shift = dcache.line_shift
        d_assoc = dcache.config.associativity
        d_memlat = dcache.memory_latency
        d_inflight = dcache._inflight

        # Stable containers (mutated in place everywhere, incl. cold paths).
        rob = self._rob
        rob_popleft = rob.popleft
        rob_append = rob.append
        events_map = self._events
        event_cycles = self._event_cycles
        pending_stores = self._pending_stores
        store_waiters = self._store_waiters
        recent = self._recent
        recent_append = recent.append

        def sched(when, event, _map=events_map, _heap=event_cycles, _push=heappush):
            bucket = _map.get(when)
            if bucket is None:
                _map[when] = [event]
                _push(_heap, when)
            else:
                bucket.append(event)

        # Monotonic adders batched into locals and written back by flush()
        # at every loop exit and before every cold-path call that could
        # read or dump stats.
        fstall = 0          # stats.fetch_stall_cycles
        dstall = 0          # stats.dispatch_stall_cycles
        disorder_accum = 0  # stats.issue_disorder_accum
        dacc = 0            # dcache.stats.accesses
        dmiss = 0           # dcache.stats.misses
        dmerge = 0          # dcache.stats.merged_misses
        nd = 0              # stats.dual_distributed
        nof = 0             # stats.operand_forwards
        nrf = 0             # stats.result_forwards
        scen_acc = [0] * _NUM_SCENARIOS  # stats.by_scenario, by value - 1
        max_issued = self._max_issued_seq
        max_dispatched = self._max_dispatched_seq

        def flush():
            nonlocal fstall, dstall, disorder_accum, dacc, dmiss, dmerge
            nonlocal nd, nof, nrf
            if fstall:
                stats.fetch_stall_cycles += fstall
                fstall = 0
            if dstall:
                stats.dispatch_stall_cycles += dstall
                dstall = 0
            if disorder_accum:
                stats.issue_disorder_accum += disorder_accum
                disorder_accum = 0
            if dacc:
                dcache_stats.accesses += dacc
                dacc = 0
            if dmiss:
                dcache_stats.misses += dmiss
                dmiss = 0
            if dmerge:
                dcache_stats.merged_misses += dmerge
                dmerge = 0
            if nd:
                stats.dual_distributed += nd
                nd = 0
            if nof:
                stats.operand_forwards += nof
                nof = 0
            if nrf:
                stats.result_forwards += nrf
                nrf = 0
            by_scenario = stats.by_scenario
            for t_i in range(_NUM_SCENARIOS):
                t_n = scen_acc[t_i]
                if t_n:
                    t_scen = _SCEN_OF[t_i + 1]
                    by_scenario[t_scen] = by_scenario.get(t_scen, 0) + t_n
                    scen_acc[t_i] = 0
            self._max_issued_seq = max_issued
            self._max_dispatched_seq = max_dispatched
            for t_cl, _total, _limits, t_acc, *_ in issue_templates:
                if t_acc[0] or t_acc[1] or t_acc[2] or t_acc[3]:
                    by_class = t_cl.stats.issued_by_class
                    for t_i in (0, 1, 2, 3):
                        t_n = t_acc[t_i]
                        if t_n:
                            t_name = _CAT_NAMES[t_i]
                            by_class[t_name] = by_class.get(t_name, 0) + t_n
                            t_acc[t_i] = 0

        cycle = self.cycle
        steps = 0
        replay_due = 0  # the first cycle's scan sets it
        while True:
            # -------------------------------------------------- bookkeeping
            fetch_buffer = self._fetch_buffer  # rebound by _replay
            fetch_index = self._fetch_index
            if fetch_index >= trace_len and not fetch_buffer and not rob:
                flush()
                return True
            if max_steps and steps >= max_steps:
                flush()
                self._unpark()
                return False

            # ------------------------------------------------------ events
            # Inlined Processor._process_events / _complete_uop / _wake.
            processed = 0
            while event_cycles and event_cycles[0] <= cycle:
                event_cycle = heappop(event_cycles)
                for event in events_map.pop(event_cycle, ()):
                    processed += 1
                    kind = event[0]
                    if kind == "complete":
                        uop = event[1]
                        entry = uop.entry
                        if entry.retired or entry.squashed or uop.state is DONE:
                            continue
                        uop.state = DONE
                        uop.done_cycle = event_cycle
                        is_master = uop.role is MASTER
                        role_value = "master" if is_master else "slave"
                        recent_append(
                            (event_cycle, "complete", entry.seq, role_value, uop.cluster)
                        )
                        if uop.dest_phys is not None and uop.writes_dest:
                            rclass, phys = uop.dest_phys
                            rename = clusters[uop.cluster].rename
                            rfile = (
                                rename.file_int if rclass is RC_INT else rename.file_fp
                            )
                            rfile.ready[phys] = True
                            woken = rfile.waiters[phys]
                            rfile.waiters[phys] = []
                            for waiter in woken:
                                wentry = waiter.entry
                                if wentry.retired or wentry.squashed:
                                    continue
                                wstate = waiter.state
                                if wstate is not WAITING and wstate is not SUSPENDED:
                                    continue
                                waiter.wait_count -= 1
                                if waiter.wait_count <= 0:
                                    waiter.state = READY
                                    heappush(
                                        clusters[waiter.cluster].ready,
                                        (
                                            wentry.seq,
                                            1 if wstate is SUSPENDED else 0,
                                            waiter,
                                        ),
                                    )
                        if is_master:
                            ff = uop.fastflags
                            if ff & F_COND:
                                predictor.resolve(entry.branch_tag)
                                if (
                                    entry.mispredicted
                                    and self._mispredict_block_seq == entry.seq
                                ):
                                    sched(
                                        event_cycle + mispredict_redirect,
                                        ("fetch_resume", entry.seq),
                                    )
                            if ff & F_STORE:
                                dyn = entry.dyn
                                if (
                                    dyn.address is not None
                                    and pending_stores.get(dyn.address) is uop
                                ):
                                    del pending_stores[dyn.address]
                                for waiter in store_waiters.pop(entry.seq, ()):
                                    self._wake(waiter)
                        entry.outstanding -= 1
                    elif kind == "wake":
                        waiter = event[1]
                        wentry = waiter.entry
                        if wentry.retired or wentry.squashed:
                            continue
                        wstate = waiter.state
                        if wstate is not WAITING and wstate is not SUSPENDED:
                            continue
                        waiter.wait_count -= 1
                        if waiter.wait_count <= 0:
                            waiter.state = READY
                            heappush(
                                clusters[waiter.cluster].ready,
                                (wentry.seq, 1 if wstate is SUSPENDED else 0, waiter),
                            )
                    elif kind == "fetch_resume":
                        if self._mispredict_block_seq == event[1]:
                            self._mispredict_block_seq = None
                            if event_cycle > self._fetch_stall_until:
                                self._fetch_stall_until = event_cycle

            # ---------------------------------------------- buffer ticks
            if dual:
                for cl in clusters:
                    buf = cl.operand_buffer
                    pending = buf._pending_free
                    if pending:
                        entries = buf.entries
                        while pending and pending[0][0] <= cycle:
                            entries.pop(heappop(pending)[1], None)
                    buf = cl.result_buffer
                    pending = buf._pending_free
                    if pending:
                        entries = buf.entries
                        while pending and pending[0][0] <= cycle:
                            entries.pop(heappop(pending)[1], None)

            # ------------------------------------------------------ retire
            retired = 0
            if rob:
                while retired < retire_width:
                    if not rob:
                        break
                    entry = rob[0]
                    if entry.outstanding:
                        break
                    rob_popleft()
                    entry.retired = True
                    # Every reader skips a retired entry's uops, so drop
                    # the entry<->uop and master<->slave reference cycles:
                    # refcounting then frees the instruction here, not
                    # the cyclic GC.
                    for uop in entry.uops:
                        uop.partner = None
                    entry.uops = []
                    seq = entry.seq
                    recent_append((cycle, "retire", seq, "-", -1))
                    for cluster_index, rclass, _arch_uid, _phys, prev in entry.rename_undo:
                        if prev is not None:
                            rename = clusters[cluster_index].rename
                            rfile = (
                                rename.file_int if rclass is RC_INT else rename.file_fp
                            )
                            rfile.ready[prev] = False
                            rfile.waiters[prev].clear()
                            rfile.free.append(prev)
                    retired += 1
                if retired:
                    stats.instructions += retired

            # ------------------------------------------------------- issue
            # Inlined _issue_all / _issue_cluster / _issue_blocked / _do_issue.
            issued_any = False
            for cl, total_limit, template, by_class_acc, parked, stamped, cuts in (
                issue_templates
            ):
                ready = cl.ready
                held = None
                if parked:
                    # A parked uop goes back on the heap once the buffer it
                    # is charged to has a free entry.  Until then only this
                    # cluster's issue can change that buffer, and only by
                    # filling it, so every pop would find the uop blocked:
                    # its charges are added in bulk after the loop.
                    for buf in list(parked):
                        if len(buf.entries) < buf.capacity:
                            for item in parked.pop(buf):
                                heappush(ready, item)
                    if parked:
                        held = [(buf, items, len(items)) for buf, items in parked.items()]
                    elif not ready:
                        continue
                elif not ready:
                    continue
                remaining_total = total_limit
                remaining = template.copy()
                skipped = []
                issued = 0
                while ready and remaining_total > 0:
                    item = heappop(ready)
                    seq, phase, uop = item
                    entry = uop.entry
                    if entry.retired or entry.squashed or uop.state is not READY:
                        continue
                    ff = uop.fastflags
                    ci = ff >> F_CAT_SHIFT
                    if remaining[ci] <= 0:
                        skipped.append(item)
                        continue
                    role = uop.role
                    # ---- _issue_blocked
                    blocked = None
                    if ff & F_DIV and role is MASTER:
                        free = False
                        for t in cl.divider_free_at:
                            if t <= cycle:
                                free = True
                                break
                        if not free:
                            blocked = "divider"
                    if dual and blocked is None:
                        # Single-cluster uops never touch transfer buffers.
                        is_result_phase_slave = role is SLAVE and (
                            uop.forwards_result_only or phase == 1
                        )
                        if (
                            uop.needs_operand_entry
                            and phase == 0
                            and not is_result_phase_slave
                        ):
                            buf = clusters[uop.partner.cluster].operand_buffer
                            if (
                                len(buf.entries) >= buf.capacity
                                and seq not in buf.entries
                            ):
                                blocked = "buffer"
                        if (
                            blocked is None
                            and role is MASTER
                            and uop.needs_result_entry
                        ):
                            for rcv in uop.entry.plan.result_receivers:
                                buf = clusters[rcv].result_buffer
                                if len(buf.entries) >= buf.capacity:
                                    blocked = "buffer"
                                    break
                    if blocked is not None:
                        if blocked == "buffer":
                            if uop.blocked_on_buffer_since < 0:
                                uop.blocked_on_buffer_since = cycle
                                stamped.append((cycle, item))
                                if cycle + replay_threshold < replay_due:
                                    replay_due = cycle + replay_threshold
                            if uop.needs_operand_entry and phase == 0:
                                buf = clusters[uop.partner.cluster].operand_buffer
                            else:
                                # Master blocked on a result entry: charge
                                # the first receiver buffer that is full.
                                buf = clusters[uop.partner.cluster].result_buffer
                                for rcv in uop.entry.plan.result_receivers:
                                    cand = clusters[rcv].result_buffer
                                    if len(cand.entries) >= cand.capacity:
                                        buf = cand
                                        break
                            buf.stats.full_stall_cycles += 1
                            # An FP-divide master stays on the heap: its
                            # divider check comes first and can change.
                            if park and not (ff & F_DIV and role is MASTER):
                                items = parked.get(buf)
                                if items is None:
                                    parked[buf] = [item]
                                else:
                                    items.append(item)
                                continue
                        skipped.append(item)
                        continue
                    # ---- _do_issue
                    uop.state = ISSUED
                    uop.issue_cycle = cycle
                    if uop.blocked_on_buffer_since >= 0:
                        uop.blocked_on_buffer_since = -1
                    event_name = "issue" if phase == 0 else "reissue"
                    role_value = "master" if role is MASTER else "slave"
                    recent_append((cycle, event_name, seq, role_value, uop.cluster))
                    by_class_acc[ci] += 1
                    if seq < max_issued:
                        disorder_accum += max_issued - seq
                    else:
                        max_issued = seq
                    if phase == 0:
                        cl.queue_free += 1
                    if role is SLAVE and uop.needs_operand_entry and phase == 0:
                        # Slave ships the operand to the master's cluster; a
                        # sibling slave of the same instruction shares the
                        # entry (mirrors TransferBuffer.allocate).
                        partner = uop.partner
                        buf = clusters[partner.cluster].operand_buffer
                        bstats = buf.stats
                        if seq in buf.entries:
                            bstats.allocations += 1
                        else:
                            if len(buf.entries) >= buf.capacity:
                                raise RuntimeError(f"{buf.name} overflow")
                            buf.entries[seq] = cycle
                            if seq > replay_watch.get(buf, _NEVER):
                                replay_due = cycle
                            bstats.allocations += 1
                            occupancy = len(buf.entries)
                            if occupancy > bstats.peak_occupancy:
                                bstats.peak_occupancy = occupancy
                        when = cycle + 1
                        bucket = events_map.get(when)
                        if bucket is None:
                            events_map[when] = bucket = [("wake", partner)]
                            heappush(event_cycles, when)
                        else:
                            bucket.append(("wake", partner))
                        if uop.writes_dest:
                            uop.state = SUSPENDED
                            uop.wait_count = 1
                        else:
                            bucket.append(("complete", uop))
                    elif role is SLAVE and (uop.forwards_result_only or phase == 1):
                        # Slave reads the forwarded result.
                        when = cycle + 1
                        heappush(cl.result_buffer._pending_free, (when, seq))
                        bucket = events_map.get(when)
                        if bucket is None:
                            events_map[when] = [("complete", uop)]
                            heappush(event_cycles, when)
                        else:
                            bucket.append(("complete", uop))
                    else:
                        # Master (or single-distributed) execution.
                        if ff & F_LOAD:
                            address = entry.dyn.address
                            if address is None:
                                latency = uop.lat0
                            elif uop.store_dep is not None:
                                # Store-to-load forwarding: counted as an
                                # access, no cache state touched.
                                dacc += 1
                                latency = uop.lat0
                            else:
                                # Inlined Cache.access (hit and miss).
                                dacc += 1
                                if len(d_inflight) > 4096:
                                    dcache.expire_inflight(cycle)
                                    d_inflight = dcache._inflight
                                line = address >> d_shift
                                tag = line // d_nsets
                                ways = d_sets[line % d_nsets]
                                if tag in ways:
                                    ways.remove(tag)
                                    ways.append(tag)
                                    latency = uop.lat0
                                else:
                                    dmiss += 1
                                    ready_at = d_inflight.get(line)
                                    if ready_at is not None and ready_at > cycle:
                                        dmerge += 1
                                    else:
                                        ready_at = cycle + d_memlat
                                        d_inflight[line] = ready_at
                                    ways.append(tag)
                                    if len(ways) > d_assoc:
                                        ways.pop(0)
                                    latency = (ready_at - cycle) + uop.lat0
                        elif ff & F_STORE:
                            address = entry.dyn.address
                            if address is not None:
                                # Inlined Cache.access(write=True); the
                                # ready cycle is irrelevant for stores.
                                dacc += 1
                                if len(d_inflight) > 4096:
                                    dcache.expire_inflight(cycle)
                                    d_inflight = dcache._inflight
                                line = address >> d_shift
                                tag = line // d_nsets
                                ways = d_sets[line % d_nsets]
                                if tag in ways:
                                    ways.remove(tag)
                                    ways.append(tag)
                                else:
                                    dmiss += 1
                                    ready_at = d_inflight.get(line)
                                    if ready_at is not None and ready_at > cycle:
                                        dmerge += 1
                                    else:
                                        d_inflight[line] = cycle + d_memlat
                                    ways.append(tag)
                                    if len(ways) > d_assoc:
                                        ways.pop(0)
                            latency = uop.lat0
                        else:
                            latency = uop.lat0
                        done = cycle + latency
                        if ff & F_DIV:
                            divider_free_at = cl.divider_free_at
                            for i, t in enumerate(divider_free_at):
                                if t <= cycle:
                                    divider_free_at[i] = done
                                    break
                        partner = uop.partner
                        if role is MASTER and partner is not None:
                            helpers = uop.entry.uops
                            if partner.needs_operand_entry or (
                                len(helpers) > 2
                                and uop.entry.plan.forwarded_src_indices
                            ):
                                heappush(
                                    cl.operand_buffer._pending_free, (cycle + 1, seq)
                                )
                            if uop.needs_result_entry:
                                wake_at = done - 1
                                if wake_at < cycle + 1:
                                    wake_at = cycle + 1
                                for receiver in helpers[1:]:
                                    if not receiver.writes_dest:
                                        continue
                                    buf = clusters[receiver.cluster].result_buffer
                                    if len(buf.entries) >= buf.capacity:
                                        raise RuntimeError(f"{buf.name} overflow")
                                    buf.entries[seq] = cycle
                                    if seq > replay_watch.get(buf, _NEVER):
                                        replay_due = cycle
                                    bstats = buf.stats
                                    bstats.allocations += 1
                                    occupancy = len(buf.entries)
                                    if occupancy > bstats.peak_occupancy:
                                        bstats.peak_occupancy = occupancy
                                    bucket = events_map.get(wake_at)
                                    if bucket is None:
                                        events_map[wake_at] = [("wake", receiver)]
                                        heappush(event_cycles, wake_at)
                                    else:
                                        bucket.append(("wake", receiver))
                        bucket = events_map.get(done)
                        if bucket is None:
                            events_map[done] = [("complete", uop)]
                            heappush(event_cycles, done)
                        else:
                            bucket.append(("complete", uop))
                    remaining[ci] -= 1
                    if not remaining[ci]:
                        cuts[ci] = seq
                    remaining_total -= 1
                    issued += 1
                for item in skipped:
                    heappush(ready, item)
                if held is not None:
                    # The reference pops a held uop, and charges it, if it
                    # comes before the item that used up the total limit
                    # and before the one that used up its own category (a
                    # class-limited uop is skipped before the buffer check).
                    # Uops parked in this cycle sit past ``n``: charged above.
                    last = seq if remaining_total <= 0 else None
                    for buf, items, n in held:
                        if last is None and min(remaining) > 0:
                            charged = n
                        else:
                            charged = 0
                            for i in range(n):
                                h_seq, _phase, h_uop = items[i]
                                h_ci = h_uop.fastflags >> F_CAT_SHIFT
                                if (last is None or h_seq < last) and (
                                    remaining[h_ci] > 0 or h_seq < cuts[h_ci]
                                ):
                                    charged += 1
                        buf.stats.full_stall_cycles += charged
                if issued:
                    issued_any = True
                    # Per-uop in the reference; the per-cycle sums are
                    # equal and nothing observes the counters mid-issue.
                    cl.stats.issued += issued
                    stats.uops_executed += issued
                    stats.issue_disorder_samples += issued

            # ---------------------------------------------------- dispatch
            # Inlined _dispatch / _resources_available / _make_entry.
            budget = dispatch_width
            dispatched = False
            dblock = None  # ClusterStats charged by a queue/regfile block
            while budget > 0 and fetch_buffer:
                dyn, fetch_cycle, mispredicted, fl = fetch_buffer[0]
                if cycle < fetch_cycle + frontend_depth:
                    break
                seq = dyn.seq
                if fl & F_REASSIGN and seq not in self._reassigned_seqs:
                    flush()  # reassignment drains/diagnoses on exact stats
                    if not self._handle_reassignment(dyn, cycle):
                        break
                instr = dyn.instr
                recipe = None if fl & F_HOMELESS else recipes_get(instr.uid)
                if recipe is None:
                    recipe = self._recipe_for(instr, fl)
                # ---- _resources_available
                master_cluster = clusters[recipe.master]
                if master_cluster.queue_free < 1:
                    dblock = master_cluster.stats
                    dblock.queue_full_stalls += 1
                    dblock_queue = True
                    dstall += 1
                    break
                m_rename = master_cluster.rename
                dest_is_int = recipe.dest_is_int
                if recipe.m_writes and not (
                    m_rename.file_int if dest_is_int else m_rename.file_fp
                ).free:
                    dblock = master_cluster.stats
                    dblock.regfile_full_stalls += 1
                    dblock_queue = False
                    dstall += 1
                    break
                is_dual_entry = recipe.is_dual
                multi = recipe.multi
                if is_dual_entry and not multi:
                    slave_cluster = clusters[recipe.slave]
                    if slave_cluster.queue_free < 1:
                        dblock = slave_cluster.stats
                        dblock.queue_full_stalls += 1
                        dblock_queue = True
                        dstall += 1
                        break
                    s_rename = slave_cluster.rename
                    if recipe.s_writes and not (
                        s_rename.file_int if dest_is_int else s_rename.file_fp
                    ).free:
                        dblock = slave_cluster.stats
                        dblock.regfile_full_stalls += 1
                        dblock_queue = False
                        dstall += 1
                        break
                elif multi:
                    # N>=3-cluster plan: every helper cluster needs a queue
                    # slot, and every result receiver a free register.
                    blocked_dispatch = False
                    for si, sc_index in enumerate(recipe.slaves):
                        sc = clusters[sc_index]
                        if sc.queue_free < 1:
                            dblock = sc.stats
                            dblock.queue_full_stalls += 1
                            dblock_queue = True
                            dstall += 1
                            blocked_dispatch = True
                            break
                        r = sc.rename
                        if recipe.s_writes_by[si] and not (
                            r.file_int if dest_is_int else r.file_fp
                        ).free:
                            dblock = sc.stats
                            dblock.regfile_full_stalls += 1
                            dblock_queue = False
                            dstall += 1
                            blocked_dispatch = True
                            break
                    if blocked_dispatch:
                        break
                fetch_buffer.popleft()
                # ---- _make_entry (RobEntry slots written inline; mirrors
                # RobEntry.__init__ plus the fetch/dispatch stamps)
                entry = new_entry(RobEntry)
                entry.seq = seq
                entry.dyn = dyn
                entry.plan = recipe.plan
                entry.uops = uops = []
                entry.outstanding = 0
                entry.rename_undo = rename_undo = []
                entry.branch_tag = -1
                entry.mispredicted = False
                entry.fetch_cycle = fetch_cycle
                entry.dispatch_cycle = cycle
                entry.retired = False
                entry.squashed = False
                if seq > max_dispatched:
                    max_dispatched = seq
                    scen_acc[recipe.scen_i - 1] += 1
                    if is_dual_entry:
                        nd += 1
                        if recipe.has_fwd:
                            nof += 1
                        if recipe.result_fwd:
                            nrf += 1
                if fl & F_COND:
                    entry.branch_tag = seq
                    entry.mispredicted = mispredicted
                has_fwd = recipe.has_fwd
                # Uop slots written inline; mirrors Uop.__init__ with the
                # recipe's precomputed fields folded in.
                master = new_uop(Uop)
                master.entry = entry
                master.role = MASTER
                master.cluster = recipe.master
                master.opcode = recipe.opcode
                master.iclass = recipe.iclass
                master.dest_phys = None
                master.state = WAITING
                master.issue_cycle = -1
                master.done_cycle = -1
                master.partner = None
                master.needs_operand_entry = False
                master.needs_result_entry = recipe.result_fwd
                master.writes_dest = recipe.m_writes
                master.forwards_result_only = False
                master.intercopy_pending = has_fwd
                master.store_dep = None
                master.blocked_on_buffer_since = -1
                master.lat0 = recipe.lat
                master.fastflags = recipe.ff
                master.src_phys = src_phys = []
                # One wake per shipping helper (exactly ``has_fwd`` on a
                # two-cluster machine, where all forwards share one slave).
                wait = recipe.n_shippers
                for rclass, reg_uid, is_int in recipe.m_srcs:
                    rfile = m_rename.file_int if is_int else m_rename.file_fp
                    phys = rfile.mapping[reg_uid]
                    src_phys.append((rclass, phys))
                    if not rfile.ready[phys]:
                        wait += 1
                        rfile.waiters[phys].append(master)
                master.wait_count = wait
                if recipe.m_writes:
                    rfile = m_rename.file_int if dest_is_int else m_rename.file_fp
                    phys = rfile.free.pop()
                    prev = rfile.mapping.get(recipe.dest_uid)
                    rfile.mapping[recipe.dest_uid] = phys
                    rfile.ready[phys] = False
                    rfile.waiters[phys].clear()
                    master.dest_phys = (recipe.dest_rc, phys)
                    rename_undo.append(
                        (recipe.master, recipe.dest_rc, recipe.dest_uid, phys, prev)
                    )
                uops.append(master)
                master_cluster.queue_free -= 1
                mstats = master_cluster.stats
                occupancy = (
                    master_cluster.config.dispatch_queue_entries
                    - master_cluster.queue_free
                )
                if occupancy > mstats.peak_queue_occupancy:
                    mstats.peak_queue_occupancy = occupancy
                if is_dual_entry and not multi:
                    slave = new_uop(Uop)
                    slave.entry = entry
                    slave.role = SLAVE
                    slave.cluster = recipe.slave
                    slave.opcode = recipe.opcode
                    slave.iclass = recipe.iclass
                    slave.dest_phys = None
                    slave.state = WAITING
                    slave.issue_cycle = -1
                    slave.done_cycle = -1
                    slave.needs_operand_entry = has_fwd
                    slave.needs_result_entry = False
                    slave.writes_dest = recipe.s_writes
                    slave.forwards_result_only = not has_fwd
                    slave.intercopy_pending = not has_fwd
                    slave.store_dep = None
                    slave.blocked_on_buffer_since = -1
                    slave.lat0 = recipe.lat
                    slave.fastflags = recipe.ff
                    slave.src_phys = src_phys = []
                    wait = 0 if has_fwd else 1
                    for rclass, reg_uid, is_int in recipe.s_srcs:
                        rfile = s_rename.file_int if is_int else s_rename.file_fp
                        phys = rfile.mapping[reg_uid]
                        src_phys.append((rclass, phys))
                        if not rfile.ready[phys]:
                            wait += 1
                            rfile.waiters[phys].append(slave)
                    slave.wait_count = wait
                    if recipe.s_writes:
                        rfile = s_rename.file_int if dest_is_int else s_rename.file_fp
                        phys = rfile.free.pop()
                        prev = rfile.mapping.get(recipe.dest_uid)
                        rfile.mapping[recipe.dest_uid] = phys
                        rfile.ready[phys] = False
                        rfile.waiters[phys].clear()
                        slave.dest_phys = (recipe.dest_rc, phys)
                        rename_undo.append(
                            (recipe.slave, recipe.dest_rc, recipe.dest_uid, phys, prev)
                        )
                    slave.partner = master
                    master.partner = slave
                    uops.append(slave)
                    slave_cluster.queue_free -= 1
                    sstats = slave_cluster.stats
                    occupancy = (
                        slave_cluster.config.dispatch_queue_entries
                        - slave_cluster.queue_free
                    )
                    if occupancy > sstats.peak_queue_occupancy:
                        sstats.peak_queue_occupancy = occupancy
                elif multi:
                    # One slave copy per helper cluster (mirrors the
                    # reference _make_entry loop; cold path — only N>=3
                    # plans spanning three or more clusters reach it).
                    for si, sc_index in enumerate(recipe.slaves):
                        sc = clusters[sc_index]
                        s_rename = sc.rename
                        own_srcs = recipe.s_srcs_by[si]
                        slave = new_uop(Uop)
                        slave.entry = entry
                        slave.role = SLAVE
                        slave.cluster = sc_index
                        slave.opcode = recipe.opcode
                        slave.iclass = recipe.iclass
                        slave.dest_phys = None
                        slave.state = WAITING
                        slave.issue_cycle = -1
                        slave.done_cycle = -1
                        slave.needs_operand_entry = bool(own_srcs)
                        slave.needs_result_entry = False
                        slave.writes_dest = recipe.s_writes_by[si]
                        slave.forwards_result_only = not own_srcs
                        slave.intercopy_pending = not own_srcs
                        slave.store_dep = None
                        slave.blocked_on_buffer_since = -1
                        slave.lat0 = recipe.lat
                        slave.fastflags = recipe.ff
                        slave.src_phys = src_phys = []
                        wait = 0 if own_srcs else 1
                        for rclass, reg_uid, is_int in own_srcs:
                            rfile = s_rename.file_int if is_int else s_rename.file_fp
                            phys = rfile.mapping[reg_uid]
                            src_phys.append((rclass, phys))
                            if not rfile.ready[phys]:
                                wait += 1
                                rfile.waiters[phys].append(slave)
                        slave.wait_count = wait
                        if recipe.s_writes_by[si]:
                            rfile = s_rename.file_int if dest_is_int else s_rename.file_fp
                            phys = rfile.free.pop()
                            prev = rfile.mapping.get(recipe.dest_uid)
                            rfile.mapping[recipe.dest_uid] = phys
                            rfile.ready[phys] = False
                            rfile.waiters[phys].clear()
                            slave.dest_phys = (recipe.dest_rc, phys)
                            rename_undo.append(
                                (sc_index, recipe.dest_rc, recipe.dest_uid, phys, prev)
                            )
                        slave.partner = master
                        uops.append(slave)
                        sc.queue_free -= 1
                        sstats = sc.stats
                        occupancy = (
                            sc.config.dispatch_queue_entries - sc.queue_free
                        )
                        if occupancy > sstats.peak_queue_occupancy:
                            sstats.peak_queue_occupancy = occupancy
                    master.partner = uops[1]
                if fl & F_LOAD:
                    address = dyn.address
                    if address is not None:
                        dep = pending_stores.get(address)
                        if (
                            dep is not None
                            and not dep.entry.retired
                            and dep.state is not DONE
                        ):
                            master.store_dep = dep
                            master.wait_count += 1
                            store_waiters.setdefault(dep.entry.seq, []).append(master)
                elif fl & F_STORE:
                    address = dyn.address
                    if address is not None:
                        pending_stores[address] = master
                if multi:
                    entry.outstanding = len(uops)
                    for u in uops:
                        if u.wait_count == 0:
                            u.state = READY
                            heappush(clusters[u.cluster].ready, (seq, 0, u))
                    for u in uops:
                        role_value = "master" if u.role is MASTER else "slave"
                        recent_append((cycle, "dispatch", seq, role_value, u.cluster))
                    budget -= len(uops)
                elif is_dual_entry:
                    entry.outstanding = 2
                    if master.wait_count == 0:
                        master.state = READY
                        heappush(master_cluster.ready, (seq, 0, master))
                    if slave.wait_count == 0:
                        slave.state = READY
                        heappush(slave_cluster.ready, (seq, 0, slave))
                    recent_append((cycle, "dispatch", seq, "master", master.cluster))
                    recent_append((cycle, "dispatch", seq, "slave", slave.cluster))
                    budget -= 2
                else:
                    entry.outstanding = 1
                    if master.wait_count == 0:
                        master.state = READY
                        heappush(master_cluster.ready, (seq, 0, master))
                    recent_append((cycle, "dispatch", seq, "master", master.cluster))
                    budget -= 1
                rob_append(entry)
                dispatched = True

            # ------------------------------------------------------- fetch
            # Inlined _fetch.
            fetched = 0
            if self._mispredict_block_seq is not None or cycle < self._fetch_stall_until:
                fstall += 1
            elif fetch_index < trace_len:
                space = fetch_cap - len(fetch_buffer)
                last_line = self._last_fetch_line
                while fetched < fetch_width and space > 0 and fetch_index < trace_len:
                    fl = flags_col[fetch_index]
                    dyn = trace[fetch_index]
                    line = lines[fetch_index]
                    if line != last_line:
                        ready_at = icache.access(dyn.meta.pc, cycle)
                        last_line = line
                        if ready_at > cycle:
                            self._fetch_stall_until = ready_at
                            break
                    predicted_taken = False
                    if fl & F_CTRL:
                        if fl & F_COND:
                            prediction = predictor.predict(
                                dyn.meta.pc, (fl & F_TAKEN) != 0, dyn.seq
                            )
                            predicted_taken = prediction
                            if prediction != ((fl & F_TAKEN) != 0):
                                fetch_buffer.append((dyn, cycle, True, fl))
                                fetch_index += 1
                                self._mispredict_block_seq = dyn.seq
                                last_line = -1
                                fetched = -1  # "return True" in the reference
                                break
                        else:
                            predicted_taken = True
                    fetch_buffer.append((dyn, cycle, False, fl))
                    fetch_index += 1
                    fetched += 1
                    space -= 1
                    if predicted_taken and fl & F_TNF:
                        last_line = -1
                        break
                self._last_fetch_line = last_line
                self._fetch_index = fetch_index
            fetched_any = fetched != 0

            # ------------------------------------------------------ replay
            # _check_replay can only find a victim when a transfer buffer
            # exists (dual clusters), something is in flight, and a uop
            # stamped buffer-blocked at least replay_threshold cycles ago
            # waits on a buffer holding a younger entry; it is a read-only
            # no-op otherwise.  replay_due is the next cycle at which that
            # can first hold: a stamp coming of age (_replay_victim) or a
            # buffer entry younger than its watch seq (the issue block).
            if dual and rob and cycle >= replay_due:
                victim, replay_due = self._replay_victim(cycle)
                if victim is not None:
                    self._replay(victim.entry, cycle)
                    fetch_buffer = self._fetch_buffer
                    fetch_index = self._fetch_index

            # ------------------------------------- progress + fast-forward
            if processed or retired or issued_any or dispatched or fetched_any:
                self._last_progress_cycle = cycle
            if not issued_any and not dispatched and not fetched_any and retired == 0:
                # Dispatch-stall run: the head is blocked on a queue or
                # register-file check and no ready heap holds a uop, so no
                # retire, issue or dispatch can happen before the next
                # event (or a replay, below).  Fetch
                # fetched nothing, so it is quiet too: stalled, its buffer
                # full, or the trace exhausted (an I-cache miss starts a
                # stall).  No transfer-buffer release is pending either:
                # releases are scheduled for the cycle after an issue, and
                # this cycle's tick took every earlier one.  So until the
                # next event or the end of a fetch stall every cycle only
                # repeats this cycle's stall counts, and the head's
                # front-end delay is past, so _maybe_fast_forward would not
                # jump.  Count the run in bulk; the watchdog bounds make a
                # timeout fire at the cycle stepping would reach.  A
                # homeless head is stepped (its steering pointer advances
                # on every attempt).  A reassignment point never reaches a
                # resource check before its switch is done, and is an
                # ordinary head after it.  A replay this cycle leaves its
                # victim ready, so the ready test also guards the head read.
                # Parked uops may be waiting: their buffers stay full (no
                # release is pending and nothing issues), so each one draws
                # one charge per cycle, and the run ends at replay_due,
                # the first cycle a replay could fire.
                target = 0
                parked_any = any(parked_by)
                if dblock is not None:
                    for cl in clusters:
                        if cl.ready:
                            break
                    else:
                        if not fetch_buffer[0][3] & F_HOMELESS:
                            target = limit + 1
                            if event_cycles and event_cycles[0] < target:
                                target = event_cycles[0]
                            if cycle < self._fetch_stall_until < target:
                                target = self._fetch_stall_until
                            if window:
                                bound = self._last_progress_cycle + window + 1
                                if bound < target:
                                    target = bound
                            if parked_any and replay_due < target:
                                target = replay_due
                skipped = target - cycle - 1
                if skipped > 0:
                    dstall += skipped
                    if dblock_queue:
                        dblock.queue_full_stalls += skipped
                    else:
                        dblock.regfile_full_stalls += skipped
                    if (
                        self._mispredict_block_seq is not None
                        or self._fetch_stall_until > cycle
                    ):
                        fstall += skipped
                    if parked_any:
                        for parked in parked_by:
                            for buf, items in parked.items():
                                buf.stats.full_stall_cycles += skipped * len(items)
                    cycle = target - 1
                elif not parked_any:
                    # (A parked uop is ready: _maybe_fast_forward would
                    # return at once.)
                    flush()  # fast-forward may raise with a diagnostic dump
                    self.cycle = cycle
                    self._maybe_fast_forward(cycle)
                    cycle = self.cycle
            cycle += 1
            self.cycle = cycle
            steps += 1
            if cycle > limit:
                flush()
                self._unpark()
                raise WatchdogTimeout(
                    f"exceeded cycle budget {limit}",
                    cycle=cycle,
                    seq=rob[0].seq if rob else self._fetch_index,
                    config=config.name,
                    diagnostics=self.diagnostic_dump(),
                )
            if window and cycle - self._last_progress_cycle > window:
                flush()
                self._unpark()
                raise WatchdogTimeout(
                    f"no forward progress for {window} cycles "
                    "(no fetch, dispatch, issue, retire, or event activity)",
                    cycle=cycle,
                    seq=rob[0].seq if rob else self._fetch_index,
                    config=config.name,
                    diagnostics=self.diagnostic_dump(),
                )
