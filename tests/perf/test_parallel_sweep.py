"""The --jobs sweep engine: bit-identity, degradation, driver parity."""

import pytest

from repro.errors import CompileError, ConfigError
from repro.experiments.ablations import run_ablation
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.perf.cache import ArtifactCache
from repro.perf.parallel import resolve_jobs
from repro.workloads import spec92

TL = 1200


def _row_tuples(result):
    return [
        (
            row.benchmark,
            row.pct_none,
            row.pct_local,
            row.evaluation.single.cycles,
            row.evaluation.dual_none.cycles,
            row.evaluation.dual_local.cycles,
        )
        for row in result.rows
    ]


class TestResolveJobs:
    def test_positive_passthrough(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_cores(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_negative_is_a_config_error(self):
        # Negative worker counts used to be silently clamped; a typo'd
        # ``--jobs -2`` must be loud instead.
        with pytest.raises(ConfigError, match="jobs"):
            resolve_jobs(-1)
        with pytest.raises(ConfigError):
            resolve_jobs(-100)

    def test_absurd_oversubscription_is_a_config_error(self):
        with pytest.raises(ConfigError, match="exceeds"):
            resolve_jobs(10_000)

    def test_moderate_oversubscription_is_allowed(self):
        import os

        # Up to 4x the cores (floor 64) is legitimate oversubscription.
        ceiling = max(4 * (os.cpu_count() or 1), 64)
        assert resolve_jobs(ceiling) == ceiling
        with pytest.raises(ConfigError):
            resolve_jobs(ceiling + 1)


class TestTable2BitIdentity:
    def test_full_sweep_parallel_equals_serial(self):
        serial = run_table2(None, EvaluationOptions(trace_length=TL))
        parallel = run_table2(None, EvaluationOptions(trace_length=TL, jobs=2))
        assert len(serial.rows) == len(spec92.SPEC92)
        assert _row_tuples(parallel) == _row_tuples(serial)
        assert parallel.failures == serial.failures == []

    def test_full_stats_surface_bit_identical(self):
        """Every stat — not just cycle counts — survives the worker trip.

        ``SimulationStats.as_dict()`` is the full fingerprint surface
        (issue counts, scenario mix, buffer stats, cache counters); a
        sweep path that drops or garbles any field fails here even if
        the headline percentages agree.
        """
        serial = run_table2(["compress"], EvaluationOptions(trace_length=TL))
        parallel = run_table2(
            ["compress"], EvaluationOptions(trace_length=TL, jobs=2)
        )
        s_ev, p_ev = serial.rows[0].evaluation, parallel.rows[0].evaluation
        for part in ("single", "dual_none", "dual_local"):
            s_stats = getattr(s_ev, part).stats.as_dict()
            p_stats = getattr(p_ev, part).stats.as_dict()
            assert p_stats == s_stats, f"stats diverge for part {part!r}"
            # Buffer stats came home from the worker, not as defaults.
            if part != "single":
                clusters = p_stats["clusters"]
                assert any(
                    c["operand_buffer"] is not None for c in clusters
                ), "worker dropped transfer-buffer stats"

    def test_parallel_honours_shared_disk_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = run_table2(
            ["ora"], EvaluationOptions(trace_length=TL, jobs=2, cache=cache)
        )
        # Concurrent workers may each miss the shared native binary
        # before the other's disk write lands, so the cold miss count is
        # 2 or 3 — but every artifact ends up on disk.
        assert 2 <= cache.stats.compile_misses <= 3
        assert cache.stats.disk_writes >= 4
        warm = ArtifactCache(tmp_path)
        second = run_table2(
            ["ora"], EvaluationOptions(trace_length=TL, jobs=2, cache=warm)
        )
        # A warm shared cache is deterministic: zero misses anywhere.
        assert warm.stats.compile_misses == 0
        assert warm.stats.trace_misses == 0
        assert _row_tuples(second) == _row_tuples(first)


def _sabotaged_builder():
    raise CompileError("sabotaged for testing", benchmark="ora", stage="lowering")


class TestParallelDegradation:
    def test_failure_degrades_with_context_under_jobs(self, monkeypatch):
        monkeypatch.setitem(spec92.SPEC92, "ora", _sabotaged_builder)
        result = run_table2(
            ["compress", "ora"], EvaluationOptions(trace_length=TL, jobs=2)
        )
        assert [row.benchmark for row in result.rows] == ["compress"]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.benchmark == "ora"
        assert failure.error_type == "CompileError"
        assert "sabotaged" in failure.message
        # Context kwargs survive the trip back from the worker.
        assert failure.context["stage"] == "lowering"

    def test_parallel_failures_match_serial_failures(self, monkeypatch):
        monkeypatch.setitem(spec92.SPEC92, "ora", _sabotaged_builder)
        serial = run_table2(
            ["compress", "ora"], EvaluationOptions(trace_length=TL)
        )
        parallel = run_table2(
            ["compress", "ora"], EvaluationOptions(trace_length=TL, jobs=2)
        )
        assert parallel.failures == serial.failures
        assert _row_tuples(parallel) == _row_tuples(serial)


class TestDriverParity:
    def test_assignment_ablation(self):
        build = spec92.SPEC92["ora"]
        serial = run_ablation("assignment", build, trace_length=TL)
        parallel = run_ablation("assignment", build, trace_length=TL, jobs=2)
        assert serial.points == parallel.points

    def test_queue_size_ablation(self):
        build = spec92.SPEC92["ora"]
        serial = run_ablation("queue", build, (32, 64), trace_length=TL)
        parallel = run_ablation("queue", build, (32, 64), trace_length=TL, jobs=2)
        assert serial.points == parallel.points


class TestUnknownPart:
    def test_bad_part_rejected(self):
        from repro.experiments.harness import evaluate_workload_part

        with pytest.raises(ValueError, match="unknown evaluation part"):
            evaluate_workload_part(spec92.SPEC92["ora"](), "tripled")
