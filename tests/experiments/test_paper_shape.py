"""The paper's result shapes, checked at the trace lengths that show them.

Each test pins one claim the reproduction makes about the paper
(DESIGN.md §5): Table 1's limits visible in steady-state cycle counts,
the Table 2 shape, the Figure 4 completion order, the §5 net-performance
conclusion, the 4-way companion run (E10) and the DESIGN.md §6 ablation
shapes.  Trace lengths and tolerances are the ones each claim was
established at; a shorter trace changes which way some of them fall.
The full-scale numbers come from the ``python -m repro ...`` commands
that EXPERIMENTS.md lists next to each table.
"""

import pytest

from repro.core.distribution import Scenario
from repro.experiments.ablations import (
    run_buffer_depth_ablation,
    run_issue_width_ablation,
    run_partitioner_ablation,
    run_threshold_ablation,
)
from repro.experiments.cycle_time import run_cycle_time_analysis
from repro.experiments.harness import EvaluationOptions, evaluate_workload
from repro.experiments.scenarios import SCENARIOS, run_scenario
from repro.experiments.table2 import Table2Result, run_table2
from repro.ir.machine_program import MachineProgram
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import fp_reg, int_reg
from repro.perf.cache import ArtifactCache
from repro.uarch.config import (
    default_assignment_for,
    dual_cluster_config,
    single_cluster_config,
)
from repro.uarch.processor import Processor
from repro.workloads.spec92 import SPEC92, build_compress, build_su2cor
from repro.workloads.trace import DynamicInstruction

#: One Table 2 row per benchmark.
ROW_TRACE_LENGTH = 15_000
#: The whole table, and the §5 analysis over three of its rows.
TABLE_TRACE_LENGTH = 5_000
#: The 4-way companion and the buffer-depth/threshold ablations.
ABLATION_TRACE_LENGTH = 7_500
#: The partitioner race, and its dual-distribution ordering.
PARTITIONER_TRACE_LENGTH = 8_000
PARTITIONER_DUALS_TRACE_LENGTH = 4_000

#: Benchmarks the paper's local scheduler improves (all but ora).
IMPROVED = ["compress", "doduc", "gcc1", "su2cor", "tomcatv"]


@pytest.fixture(scope="module")
def artifact_cache():
    """Compiles are independent of trace length, so the row and table
    sweeps share each benchmark's binaries."""
    return ArtifactCache()


@pytest.fixture(scope="module")
def table(artifact_cache):
    return run_table2(
        options=EvaluationOptions(
            trace_length=TABLE_TRACE_LENGTH, cache=artifact_cache
        )
    )


# ------------------------------------------------------------- Table 1 (E1)
def _loop_trace(instructions, repetitions):
    """``instructions`` as one block, executed ``repetitions`` times."""
    machine = MachineProgram("t1")
    block = machine.add_block("b0")
    for instr in instructions:
        block.add(instr)
    machine.assign_pcs()
    pairs = list(machine.all_instructions())
    trace = []
    for _ in range(repetitions):
        for instr, meta in pairs:
            address = 0x9000 if instr.opcode.is_memory else None
            trace.append(DynamicInstruction(instr, meta, len(trace), address))
    return trace


def _cycles_per_group(instructions, config, repetitions=400):
    trace = _loop_trace(instructions, repetitions)
    result = Processor(config, default_assignment_for(config)).run(trace)
    return result.cycles / repetitions


class TestTable1Limits:
    def test_integer_issue_width_single_vs_cluster(self):
        """8 independent adds: one issue group 8-wide, two 4-wide."""
        adds = [
            MachineInstruction(
                Opcode.ADDQ, dest=int_reg(2 * i), srcs=(int_reg(28), int_reg(28))
            )
            for i in range(8)
        ]
        single = _cycles_per_group(adds, single_cluster_config())
        # All-even destinations put every add on cluster 0 of the dual
        # machine, exposing the per-cluster width of 4.
        dual = _cycles_per_group(adds, dual_cluster_config())
        assert 0.9 < single <= 1.6
        assert dual >= 2 * single * 0.8

    def test_fp_issue_limit(self):
        """At most 4 FP per cycle on the 8-way machine."""
        fps = [
            MachineInstruction(
                Opcode.ADDT, dest=fp_reg(2 * i), srcs=(fp_reg(28), fp_reg(28))
            )
            for i in range(8)
        ]
        assert _cycles_per_group(fps, single_cluster_config()) >= 1.9

    def test_functional_unit_latencies(self):
        """Chained ops are spaced by their latencies: multiply 6, FP 3."""
        mul = _cycles_per_group(
            [MachineInstruction(Opcode.MULQ, dest=int_reg(0), srcs=(int_reg(0), int_reg(0)))],
            single_cluster_config(),
        )
        fp = _cycles_per_group(
            [MachineInstruction(Opcode.ADDT, dest=fp_reg(0), srcs=(fp_reg(0), fp_reg(0)))],
            single_cluster_config(),
        )
        assert 5.9 < mul < 6.5
        assert 2.9 < fp < 3.5

    def test_unpipelined_divider(self):
        """Two independent divides on one cluster serialize on its divider."""
        divs = [
            MachineInstruction(
                Opcode.DIVS, dest=fp_reg(2 * i), srcs=(fp_reg(28), fp_reg(28))
            )
            for i in range(2)
        ]
        cycles = _cycles_per_group(divs, dual_cluster_config(), repetitions=100)
        assert cycles >= 15  # two 8-cycle divides through one divider


# ------------------------------------------------------- Figures 2-5 (E4-E7)
class TestScenarioShapes:
    def test_figures_map_to_the_paper_scenarios(self):
        assert [SCENARIOS[n].expected for n in sorted(SCENARIOS)] == [
            Scenario.SINGLE,
            Scenario.DUAL_OPERAND,
            Scenario.DUAL_RESULT,
            Scenario.DUAL_GLOBAL,
            Scenario.DUAL_OPERAND_GLOBAL,
        ]

    def test_figure4_slave_completes_no_earlier_than_master(self):
        timeline = run_scenario(4)
        assert timeline.completion_cycle("slave") >= timeline.completion_cycle(
            "master"
        )


# ------------------------------------------------------------- Table 2 (E2)
class TestTable2Shape:
    @pytest.mark.parametrize("name", sorted(SPEC92))
    def test_row(self, name, artifact_cache):
        evaluation = evaluate_workload(
            SPEC92[name](),
            EvaluationOptions(trace_length=ROW_TRACE_LENGTH, cache=artifact_cache),
        )
        for sim in (evaluation.single, evaluation.dual_none, evaluation.dual_local):
            assert sim.stats.instructions == ROW_TRACE_LENGTH
        # The local scheduler always cuts dual-distribution.
        assert (
            evaluation.dual_local.stats.dual_fraction
            < evaluation.dual_none.stats.dual_fraction
        )
        if name in IMPROVED:
            # Rescheduling is never materially worse than native.
            assert evaluation.pct_local >= evaluation.pct_none - 3.0

    def test_full_table(self, table):
        assert len(table.rows) == 6
        improved = sum(1 for r in table.rows if r.pct_local >= r.pct_none)
        assert improved >= 4  # the local scheduler wins on most benchmarks


# ----------------------------------------------------------- §4.2/§5 (E9)
class TestNetPerformance:
    def test_no_win_at_035_a_win_at_018(self, table):
        """Rows are deterministic per benchmark, so the 5k table's rows
        are exactly what a three-benchmark sweep would compute."""
        subset = Table2Result(
            rows=[table.row(name) for name in ("compress", "ora", "tomcatv")]
        )
        report = run_cycle_time_analysis(subset)
        assert report.wins_at_018 >= report.wins_at_035
        assert report.wins_at_018 >= 2
        for row in report.rows:
            assert row.net_018 > row.net_035


# ------------------------------------------------- E10 and §6 ablations
class TestAblationShapes:
    def test_issue_width_companion(self):
        result = run_issue_width_ablation(
            build_su2cor, trace_length=ABLATION_TRACE_LENGTH
        )
        assert [p.label for p in result.points] == [
            "8-way vs 2x4-way",
            "4-way vs 2x2-way",
        ]
        for point in result.points:
            assert -100 < point.pct_none < 100
            assert -100 < point.pct_local < 100

    def test_buffer_depth(self):
        result = run_buffer_depth_ablation(
            build_compress, depths=(2, 8, 32), trace_length=ABLATION_TRACE_LENGTH
        )
        shallow, _paper, deep = result.points
        # Deeper buffers never hurt; very shallow buffers never help.
        assert deep.pct_local >= shallow.pct_local - 1.0
        assert deep.replays <= shallow.replays

    def test_imbalance_threshold(self):
        result = run_threshold_ablation(
            build_compress, thresholds=(0, 2, 16), trace_length=ABLATION_TRACE_LENGTH
        )
        fractions = {p.label: p.dual_fraction for p in result.points}
        assert fractions["threshold=16"] <= fractions["threshold=0"] + 0.02


class TestPartitioners:
    @staticmethod
    def _local_is_competitive(result):
        """The local scheduler is at or near the best observed point."""
        best = max(p.pct_local for p in result.points)
        local = next(p for p in result.points if p.label == "local")
        return local.pct_local >= best - 5.0

    def test_compress(self):
        result = run_partitioner_ablation(
            build_compress, trace_length=PARTITIONER_TRACE_LENGTH
        )
        assert [p.label for p in result.points] == [
            "local",
            "affinity-kl",
            "round-robin",
            "random",
        ]
        assert self._local_is_competitive(result)

    def test_su2cor(self):
        # Balance-blind baselines never beat the local scheduler by much
        # on the high-ILP benchmark, where balance is everything.
        result = run_partitioner_ablation(
            build_su2cor, trace_length=PARTITIONER_TRACE_LENGTH
        )
        assert self._local_is_competitive(result)

    def test_informed_partitioners_cut_duals(self):
        result = run_partitioner_ablation(
            build_compress, trace_length=PARTITIONER_DUALS_TRACE_LENGTH
        )
        fractions = {p.label: p.dual_fraction for p in result.points}
        # Random scatters related ranges; the informed partitioners
        # produce materially less dual-distribution.
        assert fractions["local"] < fractions["random"]
        assert fractions["affinity-kl"] < fractions["random"]
