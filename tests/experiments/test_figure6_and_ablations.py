"""Tests for the Figure 6 experiment wrapper and the ablation harnesses."""

from repro.cli import main
from repro.experiments import harness
from repro.experiments.ablations import run_ablation
from repro.experiments.cycle_time import (
    format_cycle_time_analysis,
    run_cycle_time_analysis,
)
from repro.experiments.figure6 import run_figure6
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.workloads.generator import (
    ArraySpec,
    LoopSpec,
    WorkloadSpec,
    generate_workload,
)


def tiny():
    spec = WorkloadSpec(
        name="tiny",
        seed=8,
        arrays=[ArraySpec("a", kind="strided", size=1 << 14)],
        loops=[LoopSpec(body_blocks=2, block_size=10, trip_count=8, arrays=("a",))],
    )
    return generate_workload(spec)


class TestFigure6Experiment:
    def test_reproduces_paper(self):
        assert run_figure6().matches_paper


class TestCycleTimeAnalysis:
    def test_analysis_from_small_table2(self):
        table2 = run_table2(["ora"], EvaluationOptions(trace_length=3000))
        report = run_cycle_time_analysis(table2)
        assert len(report.rows) == 1
        # At 0.18um the clustered machine must win for a mild slowdown.
        assert report.rows[0].net_018 > report.rows[0].net_035
        text = format_cycle_time_analysis(report)
        assert "0.18um" in text

    def test_available_reductions_ordered(self):
        table2 = run_table2(["ora"], EvaluationOptions(trace_length=2000))
        report = run_cycle_time_analysis(table2)
        assert report.available_018 > report.available_035


class TestAblations:
    def test_partitioner_ablation_runs_all(self):
        result = run_ablation("partitioner", tiny, trace_length=2500)
        labels = [p.label for p in result.points]
        assert labels == ["local", "affinity-kl", "round-robin", "random"]
        text = result.format()
        assert "local" in text

    def test_assignment_ablation(self):
        result = run_ablation("assignment", tiny, trace_length=2500)
        assert [p.label for p in result.points] == ["even/odd", "low/high"]
        # The 'none' column is the same binary on the same machine shape,
        # but a different register map changes its distribution.
        assert result.points[0].pct_none != 0 or result.points[1].pct_none != 0

    def test_points_share_one_artifact_cache(self, monkeypatch, capsys):
        # All five buffer depths run the same native and local binaries:
        # one compile and one trace each for the whole sweep.
        calls = {"compile": 0, "trace": 0}
        real_compile = harness.compile_program
        real_generate = harness.TraceGenerator.generate

        def compile_program(*args, **kwargs):
            calls["compile"] += 1
            return real_compile(*args, **kwargs)

        def generate(self, *args, **kwargs):
            calls["trace"] += 1
            return real_generate(self, *args, **kwargs)

        monkeypatch.setattr(harness, "compile_program", compile_program)
        monkeypatch.setattr(harness.TraceGenerator, "generate", generate)
        main(["ablations", "--benchmark", "compress", "--trace-length", "1000",
              "--sweeps", "buffers"])
        assert calls == {"compile": 2, "trace": 2}
        assert "entries=32" in capsys.readouterr().out

    def test_points_simulate_each_shared_part_once(self, monkeypatch):
        # Every threshold point runs the same native binary on the same
        # single and dual machines; only the rescheduled binary changes.
        values = (0, 1, 2)
        separately = [
            run_ablation("threshold", tiny, (value,), trace_length=1000).points[0]
            for value in values
        ]
        calls = []
        real_simulate = harness.simulate

        def simulate(trace, config, assignment, *args, **kwargs):
            calls.append(config.name)
            return real_simulate(trace, config, assignment, *args, **kwargs)

        monkeypatch.setattr(harness, "simulate", simulate)
        result = run_ablation("threshold", tiny, values, trace_length=1000)
        assert sorted(calls) == sorted(["single-8way", "dual-4way"] + ["dual-4way"] * 3)
        assert result.points == separately

    def test_resume_never_serves_another_benchmarks_points(self, tmp_path):
        # Point keys name the sweep and the value, not the benchmark, so
        # the fingerprint must: a journal written by a compress sweep
        # holds nothing an ora sweep may reuse.
        from repro.robustness.journal import RunJournal
        from repro.workloads.spec92 import SPEC92

        def sweep(name, journal=None):
            return run_ablation(
                "threshold", SPEC92[name], (0,), trace_length=500, journal=journal
            ).format()

        with RunJournal(tmp_path / "run") as journal:
            compress = sweep("compress", journal)
        with RunJournal(tmp_path / "run") as journal:
            resumed = sweep("ora", journal)
        assert resumed == sweep("ora") != compress
