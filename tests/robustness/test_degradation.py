"""Graceful per-benchmark degradation: one sabotaged benchmark never
costs a sweep the results of the others."""

import pytest

from repro.errors import CompileError, ConfigError
from repro.experiments.harness import BenchmarkFailure, EvaluationOptions
from repro.experiments.table2 import format_table2, run_table2
from repro.workloads import spec92


def _sabotaged_builder():
    raise CompileError("sabotaged for testing", benchmark="ora", stage="lowering")


class TestSweepDegradation:
    def test_sweep_completes_past_a_failing_benchmark(self, monkeypatch):
        monkeypatch.setitem(spec92.SPEC92, "ora", _sabotaged_builder)
        result = run_table2(
            ["compress", "ora"], EvaluationOptions(trace_length=1500)
        )
        # The healthy benchmark still produced its row...
        assert [row.benchmark for row in result.rows] == ["compress"]
        assert result.row("compress").evaluation.single.cycles > 0
        # ...and the sabotaged one became a structured failure record.
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert isinstance(failure, BenchmarkFailure)
        assert failure.benchmark == "ora"
        assert failure.error_type == "CompileError"
        assert "sabotaged" in failure.message
        assert failure.context["stage"] == "lowering"

    def test_failure_table_is_reported(self, monkeypatch):
        monkeypatch.setitem(spec92.SPEC92, "ora", _sabotaged_builder)
        result = run_table2(["compress", "ora"], EvaluationOptions(trace_length=1500))
        text = format_table2(result)
        assert "failed benchmarks (1):" in text
        assert "CompileError" in text
        assert "sabotaged" in text

    def test_journaled_sweep_completes_past_a_failing_build(self, monkeypatch, tmp_path):
        # The journal hashes each built workload up front; a build that
        # fails there must still degrade to a failure record.
        from repro.robustness.journal import RunJournal

        monkeypatch.setitem(spec92.SPEC92, "ora", _sabotaged_builder)
        with RunJournal(tmp_path / "run") as journal:
            result = run_table2(
                ["compress", "ora"], EvaluationOptions(trace_length=1500), journal=journal
            )
            assert not journal.entry("table2:ora").completed
        assert [row.benchmark for row in result.rows] == ["compress"]
        assert [failure.benchmark for failure in result.failures] == ["ora"]

    def test_clean_sweep_reports_no_failures(self):
        result = run_table2(["ora"], EvaluationOptions(trace_length=1500))
        assert result.failures == []
        assert "failed benchmarks" not in format_table2(result)


class TestUnknownBenchmarks:
    def test_unknown_name_rejected_up_front_with_suggestion(self):
        with pytest.raises(ConfigError) as info:
            run_table2(["compresss"])
        message = str(info.value)
        assert "compresss" in message
        assert "did you mean 'compress'?" in message
        # The valid names are listed.
        assert "ora" in message and "tomcatv" in message

    def test_build_benchmark_suggests_close_match(self):
        with pytest.raises(ConfigError, match="did you mean"):
            spec92.build_benchmark("compres")

    def test_build_benchmark_error_is_still_a_value_error(self):
        with pytest.raises(ValueError):
            spec92.build_benchmark("nope")
