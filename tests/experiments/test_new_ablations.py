"""Tests for the queue-size and imbalance-scope ablations."""

from repro.cli import main
from repro.errors import SimulationError
from repro.experiments import harness
from repro.experiments.ablations import run_ablation
from repro.workloads.generator import (
    ArraySpec,
    LoopSpec,
    WorkloadSpec,
    generate_workload,
)


def tiny():
    spec = WorkloadSpec(
        name="tiny",
        seed=17,
        arrays=[ArraySpec("a", kind="hotcold", size=1 << 16)],
        loops=[
            LoopSpec(
                body_blocks=2,
                block_size=8,
                trip_count=12,
                diamond_prob=0.6,
                diamond_taken_prob=0.7,
                arrays=("a",),
            )
        ],
    )
    return generate_workload(spec)


class TestQueueSizeAblation:
    def test_sweeps_all_sizes(self):
        result = run_ablation("queue", tiny, (32, 128), trace_length=4000)
        assert [p.entries for p in result.points] == [32, 128]
        text = result.format()
        assert "dispatch-queue size" in text

    def test_same_trace_same_branch_stream(self):
        """Only the queue differs, so prediction counts match across points
        (accuracy may differ through update-at-execute staleness)."""
        result = run_ablation("queue", tiny, (16, 256), trace_length=4000)
        assert all(p.cycles > 0 for p in result.points)
        # A 16-entry queue cannot be faster than a 256-entry one here.
        assert result.points[0].cycles >= result.points[1].cycles

    def test_disorder_grows_with_queue(self):
        result = run_ablation("queue", tiny, (16, 256), trace_length=4000)
        assert result.points[1].issue_disorder >= result.points[0].issue_disorder

    def test_cli_retries_reach_queue_points(self, monkeypatch, capsys):
        real = harness.evaluate_workload_part
        attempts = []

        def flaky_once(workload, part, options, cache=None, **kwargs):
            attempts.append(options.fault_attempt)
            if len(attempts) == 1:
                raise SimulationError("transient glitch", benchmark=workload.name)
            return real(workload, part, options, cache, **kwargs)

        monkeypatch.setattr(harness, "evaluate_workload_part", flaky_once)
        main(["ablations", "--benchmark", "ora", "--trace-length", "400",
              "--sweeps", "queue", "--retries", "2"])
        # The first point failed once and passed on its second attempt.
        assert attempts == [0, 1, 0, 0, 0]
        assert "dispatch-queue size (ora)" in capsys.readouterr().out


class TestImbalanceScopeAblation:
    def test_both_scopes_run(self):
        result = run_ablation("scope", tiny, trace_length=3000)
        assert [p.label for p in result.points] == ["scope=block", "scope=prefix"]

    def test_both_scopes_complete_the_trace(self):
        result = run_ablation("scope", tiny, trace_length=3000)
        for p in result.points:
            assert -100 < p.pct_local < 100
