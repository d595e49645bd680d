"""Dynamic register reassignment (the Section 6 extension, demonstrated).

The paper sketches a hardware mechanism (detailed in [3]) that lets the
architectural-register-to-cluster assignment change at run time, with the
compiler hinting when: "This functionality would provide additional
flexibility in separating a sequence of instructions into a number of
partially-independent threads."

This experiment constructs the situation the mechanism exists for: a
program with two phases whose register usage favours *different* cluster
maps.

* phase A pairs even registers with even (and odd with odd) — perfectly
  single-distributed under the default even/odd map;
* phase B pairs low registers with low and high with high — all
  dual-distributed under even/odd, but perfectly local under the low/high
  map.

Three machines run the same dynamic instruction stream:

1. static even/odd (phase B pays dual-distribution),
2. static low/high (phase A pays),
3. dynamic: even/odd, with a reassignment hint to low/high at the phase
   boundary (both phases run locally; the switch costs a pipeline drain
   plus register transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.registers import RegisterAssignment
from repro.ir.machine_program import MachineProgram
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.uarch.config import dual_cluster_config
from repro.uarch.engine import make_processor
from repro.workloads.trace import DynamicInstruction


def _phase_a_block(machine: MachineProgram) -> None:
    """Same-parity pairs crossing the low/high boundary.

    Single-distributed (and balanced) under even/odd; every instruction is
    dual-distributed under low/high.
    """
    block = machine.add_block("phaseA")
    for i in range(8):
        block.add(
            MachineInstruction(
                Opcode.ADDQ, dest=int_reg(i), srcs=(int_reg(i), int_reg(i + 16))
            )
        )


def _phase_b_block(machine: MachineProgram) -> None:
    """Cross-parity pairs within each half.

    Single-distributed (and balanced) under low/high; every instruction is
    dual-distributed under even/odd.
    """
    block = machine.add_block("phaseB")
    for i in range(4):
        block.add(
            MachineInstruction(
                Opcode.ADDQ, dest=int_reg(2 * i), srcs=(int_reg(2 * i), int_reg(2 * i + 1))
            )
        )
        block.add(
            MachineInstruction(
                Opcode.ADDQ,
                dest=int_reg(16 + 2 * i),
                srcs=(int_reg(16 + 2 * i), int_reg(17 + 2 * i)),
            )
        )


def build_two_phase_trace(
    phase_length: int = 2000,
    dynamic: bool = False,
) -> list[DynamicInstruction]:
    """Phase A then phase B; with ``dynamic``, a reassignment hint to the
    low/high map rides on phase B's first instruction."""
    machine = MachineProgram("phases")
    _phase_a_block(machine)
    _phase_b_block(machine)
    machine.assign_pcs()

    a_pairs = list(
        zip(machine.block("phaseA").instructions, machine.block("phaseA").meta)
    )
    b_pairs = list(
        zip(machine.block("phaseB").instructions, machine.block("phaseB").meta)
    )

    trace: list[DynamicInstruction] = []
    while len(trace) < phase_length:
        for instr, meta in a_pairs:
            trace.append(DynamicInstruction(instr, meta, len(trace)))
    boundary = len(trace)
    while len(trace) - boundary < phase_length:
        for instr, meta in b_pairs:
            trace.append(DynamicInstruction(instr, meta, len(trace)))
    if dynamic:
        trace[boundary].reassign = RegisterAssignment.low_high_dual()
    return trace


@dataclass
class ReassignmentResult:
    static_even_odd: int
    static_low_high: int
    dynamic: int
    reassignments: int
    reassignment_stall_cycles: int
    dual_even_odd: float
    dual_low_high: float
    dual_dynamic: float

    @property
    def dynamic_wins(self) -> bool:
        return self.dynamic < min(self.static_even_odd, self.static_low_high)


def _reassignment_task(item, cache):
    """One of the three machine runs, worker-safe (rebuilds its trace)."""
    phase_length, which = item
    config = dual_cluster_config()
    if which == "even_odd":
        trace = build_two_phase_trace(phase_length, dynamic=False)
        assignment = RegisterAssignment.even_odd_dual()
    elif which == "low_high":
        trace = build_two_phase_trace(phase_length, dynamic=False)
        assignment = RegisterAssignment.low_high_dual()
    else:
        trace = build_two_phase_trace(phase_length, dynamic=True)
        assignment = RegisterAssignment.even_odd_dual()
    return make_processor(config, assignment).run(trace)


def run_reassignment_demo(
    phase_length: int = 2000, jobs: int = 1, journal=None
) -> ReassignmentResult:
    """Race the two static maps against the dynamically switching machine.

    The three runs are independent; ``jobs != 1`` runs them in worker
    processes with bit-identical cycle counts (traces are rebuilt
    deterministically inside each worker).  A ``journal``
    (:class:`~repro.robustness.journal.RunJournal`) journals each
    machine's simulation result, so an interrupted demo resumes with only
    the missing machines recomputed."""
    from repro.perf.fingerprint import fingerprint
    from repro.perf.parallel import run_sweep

    machines = ["even_odd", "low_high", "dynamic"]
    sims = run_sweep(
        _reassignment_task,
        [(phase_length, which) for which in machines],
        jobs,
        keys=[
            (
                f"reassignment:{which}",
                fingerprint(("reassignment/v1", phase_length, which)),
            )
            for which in machines
        ],
        journal=journal,
        trace_length=2 * phase_length,
    )
    even_odd, low_high, dynamic = sims
    return ReassignmentResult(
        static_even_odd=even_odd.cycles,
        static_low_high=low_high.cycles,
        dynamic=dynamic.cycles,
        reassignments=dynamic.stats.reassignments,
        reassignment_stall_cycles=dynamic.stats.reassignment_stall_cycles,
        dual_even_odd=even_odd.stats.dual_fraction,
        dual_low_high=low_high.stats.dual_fraction,
        dual_dynamic=dynamic.stats.dual_fraction,
    )


def format_reassignment_result(result: ReassignmentResult) -> str:
    lines = [
        "Dynamic register reassignment (Section 6 extension)",
        f"{'machine':<26} {'cycles':>8} {'dual %':>7}",
        f"{'static even/odd':<26} {result.static_even_odd:>8} {100 * result.dual_even_odd:>6.1f}%",
        f"{'static low/high':<26} {result.static_low_high:>8} {100 * result.dual_low_high:>6.1f}%",
        f"{'dynamic (switch at phase)':<26} {result.dynamic:>8} {100 * result.dual_dynamic:>6.1f}%",
        f"reassignments: {result.reassignments}, "
        f"stall cycles: {result.reassignment_stall_cycles}",
        f"dynamic wins: {result.dynamic_wins}",
    ]
    return "\n".join(lines)
