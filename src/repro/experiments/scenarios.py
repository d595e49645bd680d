"""Experiments E4-E7: the dual-execution scenarios of Figures 2-5.

Each scenario builds the minimal machine program from Section 2.1's
walk-through — an integer add whose register operands straddle the
clusters in the prescribed way — runs it on the dual-cluster machine with
the event log enabled, and renders the resulting per-copy timeline.  The
checks that matter (asserted by the test suite):

* the right copies exist (master/slave, correct clusters);
* the protocol ordering holds: operand-forwarding slaves issue before
  their master; result-forwarding slaves issue after the master and
  complete after it;
* the one-cycle inter-copy gaps of the paper's figures are observed for
  one-cycle operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.distribution import Scenario
from repro.core.registers import RegisterAssignment
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Register, int_reg
from repro.ir.machine_program import MachineProgram
from repro.obs.trace import TraceRecorder
from repro.uarch.config import dual_cluster_config
from repro.uarch.engine import make_processor
from repro.workloads.trace import DynamicInstruction

#: Architectural register made global (the paper's ``g2``) in scenario
#: demos, alongside the default SP/GP globals.
GLOBAL_DEMO_REG = int_reg(8)


@dataclass
class ScenarioSpec:
    """One of the five Section 2.1 scenarios."""

    number: int
    figure: Optional[int]
    description: str
    srcs: tuple[Register, ...]
    dest: Register
    expected: Scenario


SCENARIOS: dict[int, ScenarioSpec] = {
    1: ScenarioSpec(
        1,
        None,
        "all three registers local to cluster 0: single distribution",
        (int_reg(0), int_reg(2)),
        int_reg(4),
        Scenario.SINGLE,
    ),
    2: ScenarioSpec(
        2,
        2,
        "source r1 lives in cluster 1; the slave forwards it (Figure 2)",
        (int_reg(2), int_reg(1)),
        int_reg(4),
        Scenario.DUAL_OPERAND,
    ),
    3: ScenarioSpec(
        3,
        3,
        "sources in cluster 0, destination r1 in cluster 1: the master "
        "forwards the result (Figure 3)",
        (int_reg(0), int_reg(2)),
        int_reg(1),
        Scenario.DUAL_RESULT,
    ),
    4: ScenarioSpec(
        4,
        4,
        "global destination g2: both register files are written (Figure 4)",
        (int_reg(0), int_reg(2)),
        GLOBAL_DEMO_REG,
        Scenario.DUAL_GLOBAL,
    ),
    5: ScenarioSpec(
        5,
        5,
        "split sources and a global destination: operand forwarded AND "
        "result broadcast (Figure 5)",
        (int_reg(2), int_reg(1)),
        GLOBAL_DEMO_REG,
        Scenario.DUAL_OPERAND_GLOBAL,
    ),
}


@dataclass
class ScenarioTimeline:
    """Observed behaviour of one scenario run."""

    spec: ScenarioSpec
    plan_scenario: Scenario
    events: list[tuple[int, str, int, str, int]]
    #: (cycle, role, cluster) for issues of the scenario instruction.
    issues: list[tuple[int, str, int]]
    completions: list[tuple[int, str, int]]

    def issue_cycle(self, role: str, first: bool = True) -> Optional[int]:
        cycles = [c for c, r, _cl in self.issues if r == role]
        if not cycles:
            return None
        return min(cycles) if first else max(cycles)

    def completion_cycle(self, role: str) -> Optional[int]:
        cycles = [c for c, r, _cl in self.completions if r == role]
        return max(cycles) if cycles else None


def scenario_assignment() -> RegisterAssignment:
    """Even/odd dual assignment with the demo global register ``g2``."""
    return RegisterAssignment.even_odd_dual(extra_globals=(GLOBAL_DEMO_REG,))


def build_scenario_program(spec: ScenarioSpec) -> MachineProgram:
    """Producers for each source register, then the scenario add.

    The producers (one ``lda`` per distinct source, placed in the source's
    home cluster by its register number) make the sources architecturally
    live so the add's dependences are real.
    """
    machine = MachineProgram(f"scenario{spec.number}")
    block = machine.add_block("b0")
    for reg in dict.fromkeys(spec.srcs):
        block.add(MachineInstruction(Opcode.LDA, dest=reg, imm=1))
    block.add(MachineInstruction(Opcode.ADDQ, dest=spec.dest, srcs=spec.srcs))
    # A consumer so the result is observably used.
    block.add(MachineInstruction(Opcode.ADDQ, dest=spec.dest, srcs=(spec.dest, spec.dest)))
    machine.assign_pcs()
    return machine


def run_scenario(number: int) -> ScenarioTimeline:
    """Execute one scenario on the dual-cluster machine and collect events."""
    spec = SCENARIOS[number]
    machine = build_scenario_program(spec)
    trace = [
        DynamicInstruction(instr, meta, i)
        for i, (instr, meta) in enumerate(machine.all_instructions())
    ]
    scenario_seq = len(dict.fromkeys(spec.srcs))  # the add follows the producers
    processor = make_processor(dual_cluster_config(), scenario_assignment())
    processor.recorder = TraceRecorder.memory()
    processor.run(trace)
    plan = processor._plan_cache.get(trace[scenario_seq].instr.uid)
    if plan is None:
        from repro.core.distribution import plan_for_instruction

        plan = plan_for_instruction(trace[scenario_seq].instr, scenario_assignment())
    events = [e for e in processor.recorder.events if e[2] == scenario_seq]
    issues = [
        (c, role, cl) for c, kind, _s, role, cl in events if kind in ("issue", "reissue")
    ]
    completions = [
        (c, role, cl) for c, kind, _s, role, cl in events if kind == "complete"
    ]
    return ScenarioTimeline(
        spec=spec,
        plan_scenario=plan.scenario,
        events=events,
        issues=issues,
        completions=completions,
    )


def format_timeline(timeline: ScenarioTimeline) -> str:
    """ASCII rendering in the spirit of Figures 2-5."""
    spec = timeline.spec
    header = f"Scenario {spec.number}"
    if spec.figure:
        header += f" (Figure {spec.figure})"
    lines = [
        header,
        f"  {spec.description}",
        f"  instruction: addq {', '.join(r.name for r in spec.srcs)} -> {spec.dest.name}",
        f"  classified as: {timeline.plan_scenario.name}",
    ]
    if not timeline.events:
        lines.append("  (no events recorded)")
        return "\n".join(lines)
    start = min(c for c, *_ in timeline.events)
    by_copy: dict[tuple[str, int], list[str]] = {}
    for cycle, kind, _seq, role, cluster in timeline.events:
        by_copy.setdefault((role, cluster), []).append(f"t+{cycle - start} {kind}")
    for (role, cluster), entries in sorted(by_copy.items(), key=lambda kv: kv[0][0]):
        lines.append(f"  {role:<7} @cluster{cluster}: " + ", ".join(entries))
    return "\n".join(lines)


def run_all_scenarios() -> list[ScenarioTimeline]:
    return [run_scenario(n) for n in sorted(SCENARIOS)]
