"""Tests for the experiment harness and Table 2 machinery."""

import pytest

from repro.errors import ConfigError
from repro.experiments.harness import (
    EvaluationOptions,
    evaluate_workload,
    evaluate_workload_part,
    speedup_percent,
)
from repro.perf.cache import ArtifactCache
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.experiments.table2 import Table2Result, Table2Row, format_table2, run_table2
from repro.workloads.generator import (
    ArraySpec,
    LoopSpec,
    WorkloadSpec,
    generate_workload,
)


def tiny_workload():
    spec = WorkloadSpec(
        name="tiny",
        seed=3,
        arrays=[ArraySpec("a", kind="strided", size=1 << 14)],
        loops=[LoopSpec(body_blocks=2, block_size=8, trip_count=10, arrays=("a",))],
    )
    return generate_workload(spec)


class TestSpeedupPercent:
    def test_equal_cycles_zero(self):
        assert speedup_percent(100, 100) == pytest.approx(0.0)

    def test_slowdown_negative(self):
        """Table 2 footnote: 14% more cycles -> -14."""
        assert speedup_percent(100, 114) == pytest.approx(-14.0)

    def test_speedup_positive(self):
        assert speedup_percent(100, 94) == pytest.approx(6.0)


class TestEvaluateWorkload:
    @pytest.fixture(scope="class")
    def evaluation(self):
        return evaluate_workload(tiny_workload(), EvaluationOptions(trace_length=4000))

    def test_three_runs_present(self, evaluation):
        assert evaluation.single.cycles > 0
        assert evaluation.dual_none.cycles > 0
        assert evaluation.dual_local.cycles > 0

    def test_all_instructions_retired(self, evaluation):
        assert evaluation.single.stats.instructions == 4000
        assert evaluation.dual_none.stats.instructions == 4000
        assert evaluation.dual_local.stats.instructions == 4000

    def test_single_cluster_never_dual_distributes(self, evaluation):
        assert evaluation.single.stats.dual_distributed == 0

    def test_local_reduces_dual_distribution(self, evaluation):
        assert (
            evaluation.dual_local.stats.dual_fraction
            <= evaluation.dual_none.stats.dual_fraction
        )

    def test_percentages_derived_from_cycles(self, evaluation):
        expected = speedup_percent(evaluation.single.cycles, evaluation.dual_none.cycles)
        assert evaluation.pct_none == pytest.approx(expected)

    def test_compilations_attached(self, evaluation):
        assert evaluation.native_compile.partitioner_name == "none"
        assert evaluation.local_compile.partitioner_name == "local"

    def test_deterministic(self):
        e1 = evaluate_workload(tiny_workload(), EvaluationOptions(trace_length=2000))
        e2 = evaluate_workload(tiny_workload(), EvaluationOptions(trace_length=2000))
        assert e1.single.cycles == e2.single.cycles
        assert e1.dual_local.cycles == e2.dual_local.cycles


class TestSimulationMemo:
    def test_repeated_part_is_served_from_the_memo(self):
        memo = {}
        options = EvaluationOptions(trace_length=500, cache=ArtifactCache())
        first = evaluate_workload_part(tiny_workload(), "single", options, memo=memo)
        again = evaluate_workload_part(tiny_workload(), "single", options, memo=memo)
        assert again.sim is first.sim
        assert len(memo) == 1
        # Another machine is another key.
        other = evaluate_workload_part(tiny_workload(), "dual_none", options, memo=memo)
        assert other.sim.cycles != first.sim.cycles
        assert len(memo) == 2

    def test_observed_and_faulted_runs_bypass_the_memo(self):
        memo = {}
        options = EvaluationOptions(trace_length=500, cache=ArtifactCache())
        first = evaluate_workload_part(tiny_workload(), "single", options, memo=memo)
        observed = []
        watched = evaluate_workload_part(
            tiny_workload(), "single", options, memo=memo,
            observe=lambda processor, trace: observed.append(processor),
        )
        assert observed and watched.sim is not first.sim
        plan = FaultPlan((FaultSpec("stuck_divider", part="single", at_cycle=5),))
        faulted = evaluate_workload_part(
            tiny_workload(), "single",
            EvaluationOptions(trace_length=500, cache=options.cache, fault_plan=plan),
            memo=memo,
        )
        assert faulted.sim is not first.sim
        assert len(memo) == 1


class TestTable2Formatting:
    def test_format_contains_paper_reference(self):
        row = Table2Row("compress", -20.0, -10.0, -14, 6, None)
        text = format_table2(Table2Result([row]))
        assert "compress" in text
        assert "-20.0" in text
        assert "+6" in text

    def test_run_table2_single_benchmark(self):
        result = run_table2(["ora"], EvaluationOptions(trace_length=3000))
        assert len(result.rows) == 1
        row = result.row("ora")
        assert row.paper_none == -5
        text = format_table2(result)
        assert "ora" in text and "dual%" in text

    def test_unknown_row_lookup_raises(self):
        result = Table2Result([])
        with pytest.raises(ConfigError):
            result.row("nope")
