"""Chaos soak smoke: the orchestration contract holds under induced fire."""

import json

import pytest

from repro.errors import ConfigError
from repro.robustness.chaos import (
    ChaosConfig,
    HealthReport,
    RoundReport,
    random_fault_plan,
    random_worker_fault_plan,
    run_chaos,
)

QUICK = dict(rounds=2, benchmarks=("compress",), trace_length=800)
WORKER_QUICK = dict(
    rounds=1, benchmarks=("compress",), trace_length=600, jobs=2
)


class TestChaosConfig:
    def test_defaults_valid(self):
        ChaosConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"max_faults": 0},
            {"trace_length": 10},
            {"benchmarks": ()},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ChaosConfig(**kwargs)


class TestFaultPlanGeneration:
    def test_seeded_plans_are_reproducible(self):
        import random

        a = random_fault_plan(random.Random(7), ("compress",), 1000, 3)
        b = random_fault_plan(random.Random(7), ("compress",), 1000, 3)
        assert a == b
        c = random_fault_plan(random.Random(8), ("compress",), 1000, 3)
        assert a != c  # overwhelmingly likely with 4+ drawn fields

    def test_plans_round_trip_as_dicts(self):
        import random

        from repro.robustness.faultinject import FaultPlan

        plan = random_fault_plan(random.Random(3), ("ora",), 1000, 3)
        assert FaultPlan.from_dict(plan.as_dict()) == plan


class TestChaosSoak:
    def test_quick_soak_is_healthy(self, tmp_path):
        report = run_chaos(
            ChaosConfig(seed=1234, **QUICK), run_dir=tmp_path / "chaos"
        )
        assert isinstance(report, HealthReport)
        assert report.healthy
        assert report.exit_code == 0
        assert len(report.rounds) == 2
        for r in report.rounds:
            assert isinstance(r, RoundReport)
            assert r.completed_rows + r.failed_rows == 1
            assert r.failed_rows == r.bundles_verified  # every failure replays

    def test_health_report_written(self, tmp_path):
        run_dir = tmp_path / "chaos"
        report = run_chaos(ChaosConfig(seed=1234, **QUICK), run_dir=run_dir)
        on_disk = json.loads((run_dir / "health.json").read_text())
        assert on_disk["healthy"] == report.healthy
        assert on_disk["seed"] == 1234
        assert len(on_disk["rounds"]) == 2

    def test_soak_is_deterministic(self):
        a = run_chaos(ChaosConfig(seed=5, **QUICK))
        b = run_chaos(ChaosConfig(seed=5, **QUICK))
        assert [r.fault_plan for r in a.rounds] == [r.fault_plan for r in b.rounds]
        assert [r.failed_rows for r in a.rounds] == [r.failed_rows for r in b.rounds]
        assert [r.completed_rows for r in a.rounds] == [
            r.completed_rows for r in b.rounds
        ]

    def test_parallel_soak_matches_serial(self):
        serial = run_chaos(ChaosConfig(seed=1234, **QUICK))
        parallel = run_chaos(ChaosConfig(seed=1234, jobs=2, **QUICK))
        assert parallel.healthy
        assert [r.failed_rows for r in parallel.rounds] == [
            r.failed_rows for r in serial.rounds
        ]

    def test_format_mentions_verdict(self):
        report = run_chaos(ChaosConfig(seed=1234, **QUICK))
        assert "HEALTHY" in report.format()
        assert "seed=1234" in report.format()


@pytest.fixture(scope="module")
def worker_round(tmp_path_factory):
    """One worker-fault soak at the seed CI runs, shared by the tests
    that read its report and its run directory."""
    run_dir = tmp_path_factory.mktemp("worker-chaos") / "chaos"
    report = run_chaos(
        ChaosConfig(seed=4321, worker_faults=True, **WORKER_QUICK),
        run_dir=run_dir,
    )
    return report, run_dir


class TestWorkerFaultRounds:
    def test_worker_fault_plans_are_seeded(self):
        import random

        from repro.robustness.faultinject import WORKER_FAULT_KINDS

        a = random_worker_fault_plan(random.Random(7), ("compress",), 3)
        b = random_worker_fault_plan(random.Random(7), ("compress",), 3)
        assert a == b
        assert all(spec.kind in WORKER_FAULT_KINDS for spec in a.specs)

    def test_worker_round_is_healthy_and_bit_identical(self, worker_round):
        """The executor contract under seeded worker chaos: no leaked
        failures, stats bit-identical to serial, shard journal loadable."""
        report, run_dir = worker_round
        assert report.healthy, [r.violations for r in report.rounds]
        assert report.exit_code == 0
        round_report = report.rounds[0]
        assert round_report.mode == "worker-faults"
        assert round_report.violations == []
        assert round_report.completed_rows == 1
        assert round_report.failed_rows == 0
        # The round journals into a shard, the sharded-sweep path.
        shard = run_dir / "round-00" / "journal-chaos-00.jsonl"
        assert shard.exists()

    def test_health_report_records_mode_and_config(self, worker_round):
        _, run_dir = worker_round
        on_disk = json.loads((run_dir / "health.json").read_text())
        assert on_disk["mode"] == "worker-faults"
        # The config makes a failing round reproducible from the report
        # alone: rebuild ChaosConfig(**config) and rerun the same seed.
        config = dict(on_disk["config"])
        config["benchmarks"] = tuple(config["benchmarks"])
        rebuilt = ChaosConfig(**config)
        assert rebuilt.seed == 4321
        assert rebuilt.worker_faults is True
