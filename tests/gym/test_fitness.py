"""Tests for fitness evaluation: baselines, scoring, fingerprints."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.gym.fitness import (
    BASELINE_POINT,
    GymSettings,
    compute_baseline,
    config_cycle_time,
    evaluate_point,
    geomean,
    trial_fingerprint,
    trial_key,
)
from repro.gym.space import (
    PAPER_DUAL_POINT,
    PAPER_SINGLE_POINT,
    ClusterSpec,
    DesignPoint,
)
from repro.perf.cache import ArtifactCache

#: One short workload keeps the module's simulations CI-friendly; the
#: module-scoped cache shares the compile/trace across tests.
SETTINGS = GymSettings(benchmarks=("compress",), trace_length=600)

#: The 3-cluster asymmetric point exercised throughout tests/gym.
ASYMMETRIC_POINT = DesignPoint(
    clusters=(ClusterSpec(4, 64, 64), ClusterSpec(2, 32, 64), ClusterSpec(1, 16, 64)),
    buffer_entries=4,
    extra_globals=2,
)


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache()


@pytest.fixture(scope="module")
def baseline(cache):
    return compute_baseline(SETTINGS, cache)


class TestSettings:
    def test_defaults_are_valid(self):
        GymSettings()

    def test_unknown_tech_rejected(self):
        with pytest.raises(ConfigError, match="technology"):
            GymSettings(tech="7nm")

    def test_unknown_part_rejected(self):
        with pytest.raises(ConfigError, match="part"):
            GymSettings(part="single")

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigError, match="benchmark"):
            GymSettings(benchmarks=("dhrystone",))

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ConfigError, match="benchmarks"):
            GymSettings(benchmarks=())


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="empty"):
            geomean([])


class TestCycleTime:
    def test_slowest_cluster_sets_the_clock(self):
        mixed = DesignPoint(
            clusters=(ClusterSpec(8, 128, 128), ClusterSpec(1, 16, 16)),
            buffer_entries=1,
        ).to_config()
        fat = PAPER_SINGLE_POINT.to_config()
        assert config_cycle_time(mixed, "0.35um") == pytest.approx(
            config_cycle_time(fat, "0.35um")
        )

    def test_narrow_clusters_clock_faster(self):
        dual = PAPER_DUAL_POINT.to_config()
        single = PAPER_SINGLE_POINT.to_config()
        assert config_cycle_time(dual, "0.35um") < config_cycle_time(single, "0.35um")


class TestEvaluation:
    def test_baseline_point_scores_exactly_one(self, cache, baseline):
        """The 1x8 genome evaluated against itself is the identity."""
        trial = evaluate_point(BASELINE_POINT, SETTINGS, baseline, cache)
        assert dict(trial.cycles) == dict(baseline.cycles)
        assert trial.rel_cycles == pytest.approx(1.0)
        assert trial.cycle_time_ps == pytest.approx(baseline.cycle_time_ps)
        assert trial.speedup == pytest.approx(1.0)

    def test_speedup_is_clock_ratio_over_rel_cycles(self, cache, baseline):
        trial = evaluate_point(PAPER_DUAL_POINT, SETTINGS, baseline, cache)
        assert trial.speedup == pytest.approx(
            (baseline.cycle_time_ps / trial.cycle_time_ps) / trial.rel_cycles
        )

    def test_three_cluster_asymmetric_point_runs(self, cache, baseline):
        trial = evaluate_point(ASYMMETRIC_POINT, SETTINGS, baseline, cache)
        assert trial.cycles["compress"] > 0
        assert trial.cycle_time_ps < baseline.cycle_time_ps

    def test_dual_local_reschedules_for_n_clusters(self, cache, baseline):
        # Exercises the N-cluster partitioner/regalloc path end to end.
        settings = replace(SETTINGS, part="dual_local")
        trial = evaluate_point(ASYMMETRIC_POINT, settings, baseline, cache)
        assert trial.cycles["compress"] > 0

    def test_trial_round_trips_through_payload(self, cache, baseline):
        trial = evaluate_point(PAPER_DUAL_POINT, SETTINGS, baseline, cache)
        clone = type(trial).from_dict(trial.as_dict())
        assert clone.as_dict() == trial.as_dict()

    def test_evaluation_is_deterministic(self, cache, baseline):
        a = evaluate_point(PAPER_DUAL_POINT, SETTINGS, baseline, cache)
        b = evaluate_point(PAPER_DUAL_POINT, SETTINGS, baseline, cache)
        assert a.as_dict() == b.as_dict()


class TestJournalIdentity:
    def test_key_names_point_and_rung(self):
        key = trial_key(PAPER_DUAL_POINT, SETTINGS)
        assert PAPER_DUAL_POINT.slug in key and "L600" in key

    def test_fingerprint_tracks_value_determining_inputs(self):
        base = trial_fingerprint(PAPER_DUAL_POINT, SETTINGS)
        assert base == trial_fingerprint(PAPER_DUAL_POINT, SETTINGS)
        assert base != trial_fingerprint(PAPER_SINGLE_POINT, SETTINGS)
        assert base != trial_fingerprint(
            PAPER_DUAL_POINT, replace(SETTINGS, trace_length=700)
        )
        assert base != trial_fingerprint(
            PAPER_DUAL_POINT, replace(SETTINGS, part="dual_local")
        )
