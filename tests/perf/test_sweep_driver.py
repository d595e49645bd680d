"""The one sweep driver: jobs resolution, per-result journaling, typed errors."""

import json
import os

import pytest

import repro.perf.parallel as parallel
from repro.errors import CompileError, ConfigError, SweepInterrupted
from repro.experiments import ablations, figure6, harness
from repro.experiments.figure6 import run_figure6_sweep
from repro.gym.drivers import SearchSpec, run_search
from repro.gym.fitness import GymSettings
from repro.gym.space import DesignSpace
from repro.robustness.journal import RunJournal
from repro.workloads import spec92

THRESHOLDS = (0, 1, 2, 4, 8)
GYM_SETTINGS = GymSettings(benchmarks=("compress",), trace_length=600)
GYM_SPACE = DesignSpace(
    max_clusters=3,
    widths=(2, 4),
    queue_entries=(32, 64),
    registers=(64,),
    buffer_entries=(4, 8),
    extra_globals=(0, 2),
)


@pytest.fixture
def executors(monkeypatch):
    """Every executor the driver builds, with the worker count it asked for."""
    built = []
    real = parallel.make_sweep_executor

    def spy(task_fn, jobs, *args, **kwargs):
        executor = real(task_fn, jobs, *args, **kwargs)
        built.append((jobs, executor))
        return executor

    monkeypatch.setattr(parallel, "make_sweep_executor", spy)
    return built


def _gym_search(jobs, journal=None):
    return run_search(
        SearchSpec(driver="random", seed=42, budget=3),
        GYM_SPACE,
        GYM_SETTINGS,
        jobs=jobs,
        journal=journal,
    )


class TestGymJobs:
    def test_negative_jobs_is_a_config_error(self, executors):
        with pytest.raises(ConfigError, match="jobs"):
            _gym_search(-1)
        assert executors == []

    def test_zero_jobs_is_one_worker_per_core(self, executors, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        fanned = _gym_search(0)
        assert [jobs for jobs, _ in executors] == [2]
        assert fanned.trials == _gym_search(1).trials


class _CtrlCAfterFirstRow(RunJournal):
    """A journal that takes a Ctrl-C right after its first sweep row
    (the gym's baseline record does not count)."""

    def record_completed(self, key, *args, **kwargs):
        entry = super().record_completed(key, *args, **kwargs)
        if not key.startswith("gym:baseline:"):
            raise KeyboardInterrupt("simulated Ctrl-C")
        return entry


def _completed_lines(run_dir, prefix):
    """Completed records in the journal file, duplicates included."""
    lines = (run_dir / "journal.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    return [
        r["key"] for r in records
        if r.get("status") == "completed" and r["key"].startswith(prefix)
    ]


def _interrupted(run, run_dir):
    """Run ``run(journal)`` under a Ctrl-C after its first row."""
    try:
        with _CtrlCAfterFirstRow(run_dir) as journal:
            run(journal)
    except SweepInterrupted as error:
        return error.exit_code == 130
    except KeyboardInterrupt:
        return False
    return False


class TestInterruptKeepsFinishedPoints:
    def test_figure6_resume_recomputes_only_missing_points(self, tmp_path):
        run_dir = tmp_path / "run"
        assert _interrupted(
            lambda journal: run_figure6_sweep(THRESHOLDS, jobs=2, journal=journal),
            run_dir,
        ), "the interrupt must come back as SweepInterrupted"
        assert len(_completed_lines(run_dir, "figure6:")) == 1

        with RunJournal(run_dir) as journal:
            resumed = run_figure6_sweep(THRESHOLDS, jobs=2, journal=journal)
        # One record per point: the resumed run computed only the points
        # the interrupted one had not finished.
        assert sorted(_completed_lines(run_dir, "figure6:")) == sorted(
            f"figure6:threshold={t}" for t in THRESHOLDS
        )
        plain = run_figure6_sweep(THRESHOLDS)
        assert [(t, r.block_order, r.assignment_order, r.partition)
                for t, r in resumed] == \
            [(t, r.block_order, r.assignment_order, r.partition)
             for t, r in plain]

    def test_gym_batch_resume_matches_uninterrupted(self, tmp_path):
        run_dir = tmp_path / "gym"
        assert _interrupted(lambda journal: _gym_search(2, journal), run_dir)
        assert len(_completed_lines(run_dir, "gym:")) == 2  # baseline + 1 trial

        with RunJournal(run_dir) as journal:
            resumed = _gym_search(2, journal)
        # Three distinct points, one of them replayed from the journal.
        assert len({t.point.slug for _, _, t in resumed.trials}) == 3
        assert resumed.journal_hits == 1
        assert resumed.trials == _gym_search(1).trials


_REAL_RUN_FIGURE6 = figure6.run_figure6


def _sabotaged_figure6(threshold):
    if threshold == 4:
        raise CompileError("sabotaged point", benchmark="figure6", stage="lowering")
    return _REAL_RUN_FIGURE6(threshold)


class TestGenericSweepErrors:
    def _assert_clean_executor(self, executors):
        assert len(executors) == 1
        _, executor = executors[0]
        assert executor.redispatches == 0
        assert executor.worker_deaths == 0
        assert executor.degradations == []

    def test_figure6_point_error_keeps_type_and_message(
        self, executors, monkeypatch
    ):
        monkeypatch.setattr(figure6, "run_figure6", _sabotaged_figure6)
        with pytest.raises(CompileError) as info:
            run_figure6_sweep(THRESHOLDS, jobs=2)
        assert info.value.message == "sabotaged point"
        assert info.value.context["stage"] == "lowering"
        # The worker's traceback comes home chained as text.
        assert "_sabotaged_figure6" in str(info.value.__cause__)
        self._assert_clean_executor(executors)

    def test_ablation_point_error_keeps_type_and_message(
        self, executors, monkeypatch
    ):
        def sabotaged(workload, options, cache=None):
            raise ConfigError("sabotaged ablation point", field="dual_assignment")

        monkeypatch.setattr(harness, "evaluate_workload", sabotaged)
        with pytest.raises(ConfigError) as info:
            ablations.run_assignment_ablation(
                spec92.SPEC92["ora"], trace_length=400, jobs=2
            )
        assert info.value.message == "sabotaged ablation point"
        assert info.value.context["field"] == "dual_assignment"
        self._assert_clean_executor(executors)
