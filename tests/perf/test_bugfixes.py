"""Regression tests for the three PR bugfixes.

1. ``trace_length=0`` raises a typed :class:`ConfigError` up front
   (previously an empty trace flowed into the simulator and surfaced as
   ``ZeroDivisionError`` inside ``speedup_percent``).
2. ``Table2Result.row`` on a benchmark that failed during the sweep says
   so, with the error type and message (previously it claimed the
   benchmark was unknown).
3. ``Table2Row.evaluation`` is an honest Optional; the detailed
   formatter guards rows without an evaluation instead of crashing.
"""

import pytest

from repro.errors import CompileError, ConfigError, SimulationError
from repro.experiments.harness import (
    EvaluationOptions,
    evaluate_workload,
    speedup_percent,
)
from repro.experiments.table2 import (
    Table2Result,
    Table2Row,
    format_table2,
    run_table2,
)
from repro.robustness.validate import validate_trace_length
from repro.workloads import spec92


class TestTraceLengthValidation:
    @pytest.mark.parametrize("bad", [0, -5])
    def test_evaluate_workload_rejects_non_positive(self, bad):
        with pytest.raises(ConfigError) as info:
            evaluate_workload(
                spec92.SPEC92["ora"](), EvaluationOptions(trace_length=bad)
            )
        assert "trace_length" in str(info.value)
        assert info.value.context["trace_length"] == bad

    def test_run_table2_rejects_zero(self):
        # The ConfigError is a per-benchmark ReproError, so the sweep's
        # degradation contract turns it into a failure record.
        result = run_table2(["ora"], EvaluationOptions(trace_length=0))
        assert result.rows == []
        assert result.failures[0].error_type == "ConfigError"

    def test_non_integer_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            validate_trace_length(1.5)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            validate_trace_length(True)

    def test_valid_length_accepted(self):
        validate_trace_length(1)
        validate_trace_length(120_000)


class TestSpeedupPercent:
    def test_zero_baseline_raises_typed_error(self):
        with pytest.raises(SimulationError) as info:
            speedup_percent(0, 100)
        assert "zero cycles" in str(info.value)
        assert info.value.context["dual_cycles"] == 100

    def test_zero_baseline_is_not_a_zero_division_error(self):
        with pytest.raises(Exception) as info:
            speedup_percent(0, 100)
        assert not isinstance(info.value, ZeroDivisionError)

    def test_normal_values(self):
        assert speedup_percent(100, 50) == pytest.approx(50.0)
        assert speedup_percent(100, 120) == pytest.approx(-20.0)


def _sabotaged_builder():
    raise CompileError("sabotaged for testing", benchmark="tomcatv", stage="lowering")


class TestFailedBenchmarkRow:
    def test_row_reports_sweep_failure_not_unknown(self, monkeypatch):
        monkeypatch.setitem(spec92.SPEC92, "tomcatv", _sabotaged_builder)
        result = run_table2(
            ["ora", "tomcatv"], EvaluationOptions(trace_length=1200)
        )
        with pytest.raises(ConfigError) as info:
            result.row("tomcatv")
        message = str(info.value)
        assert "failed during the sweep" in message
        assert "CompileError" in message
        assert "sabotaged" in message
        assert "unknown benchmark" not in message

    def test_truly_unknown_name_still_reported_as_unknown(self):
        result = Table2Result(rows=[])
        with pytest.raises(ConfigError, match="unknown benchmark"):
            result.row("nope")


class TestOptionalEvaluation:
    def test_default_is_none(self):
        row = Table2Row(
            benchmark="hand", pct_none=1.0, pct_local=2.0,
            paper_none=None, paper_local=None,
        )
        assert row.evaluation is None

    def test_detailed_format_guards_missing_evaluation(self):
        row = Table2Row(
            benchmark="hand", pct_none=-3.0, pct_local=1.5,
            paper_none=-14, paper_local=6,
        )
        text = format_table2(Table2Result(rows=[row]))
        assert "hand" in text
        assert "no evaluation attached" in text

    def test_detailed_format_still_prints_full_rows(self):
        result = run_table2(["ora"], EvaluationOptions(trace_length=1200))
        text = format_table2(result)
        assert "no evaluation attached" not in text
        assert "1-clu cyc" in text
