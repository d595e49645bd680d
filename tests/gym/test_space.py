"""Tests for the N-cluster design space (genomes, sampling, operators)."""

import random

import pytest

from repro.errors import ConfigError
from repro.gym.space import (
    PAPER_DUAL_POINT,
    PAPER_SINGLE_POINT,
    ClusterSpec,
    DesignPoint,
    DesignSpace,
    extra_global_registers,
    issue_rules_for,
)
from repro.isa.registers import RegisterClass, allocatable_registers
from repro.perf.fingerprint import fingerprint
from repro.uarch.config import dual_cluster_config, single_cluster_config


class TestPaperPoints:
    """The paper's two machines are exact members of the gym family."""

    def test_dual_point_expands_to_the_paper_machine(self):
        config = PAPER_DUAL_POINT.to_config()
        reference = dual_cluster_config()
        assert config.clusters == reference.clusters
        assert (config.fetch_width, config.dispatch_width, config.retire_width) == (
            reference.fetch_width,
            reference.dispatch_width,
            reference.retire_width,
        )

    def test_single_point_expands_to_the_paper_baseline(self):
        config = PAPER_SINGLE_POINT.to_config()
        reference = single_cluster_config()
        assert config.clusters == reference.clusters
        assert (config.fetch_width, config.dispatch_width, config.retire_width) == (
            reference.fetch_width,
            reference.dispatch_width,
            reference.retire_width,
        )

    def test_paper_points_are_feasible_and_canonical(self):
        space = DesignSpace()
        for point in (PAPER_SINGLE_POINT, PAPER_DUAL_POINT):
            assert space.is_feasible(point)
            assert space.canonicalize(point) == point


class TestIssueRules:
    def test_table1_rows(self):
        assert issue_rules_for(8).total == 8
        assert issue_rules_for(8).floating_point == 4
        assert issue_rules_for(4).total == 4
        assert issue_rules_for(4).memory == 2
        assert issue_rules_for(2).control == 1

    def test_width_one_keeps_every_class_usable(self):
        rules = issue_rules_for(1)
        assert rules.total == 1
        assert min(rules.floating_point, rules.memory, rules.control) >= 1

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError, match="width"):
            issue_rules_for(0)


class TestExtraGlobals:
    def test_zero_is_empty(self):
        assert extra_global_registers(0) == ()

    def test_deterministic_highest_index_choice(self):
        pool = allocatable_registers(RegisterClass.INT)
        assert extra_global_registers(2) == tuple(pool[-2:])
        assert extra_global_registers(2) == extra_global_registers(2)

    def test_over_budget_rejected(self):
        pool = allocatable_registers(RegisterClass.INT)
        with pytest.raises(ConfigError, match="exceeds"):
            extra_global_registers(len(pool) + 1)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            extra_global_registers(-1)


class TestSerialization:
    def test_round_trip(self):
        point = DesignPoint(
            clusters=(ClusterSpec(4, 64, 64), ClusterSpec(1, 16, 32)),
            buffer_entries=4,
            extra_globals=2,
        )
        assert DesignPoint.from_dict(point.as_dict()) == point
        assert fingerprint(
            DesignPoint.from_dict(point.as_dict()).as_dict()
        ) == fingerprint(point.as_dict())

    def test_slug_encodes_the_genome(self):
        point = DesignPoint(
            clusters=(ClusterSpec(4, 64, 64), ClusterSpec(1, 16, 32)),
            buffer_entries=4,
            extra_globals=2,
        )
        assert point.slug == "gym-4w64q64r+1w16q32r-b4-g2"

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError, match="malformed"):
            DesignPoint.from_dict({"clusters": [{"width": 4}]})
        with pytest.raises(ConfigError, match="malformed"):
            DesignPoint.from_dict({"buffer_entries": 1, "extra_globals": 0})


class TestCanonicalize:
    def test_sorts_clusters_fattest_first(self):
        space = DesignSpace()
        point = DesignPoint(
            clusters=(ClusterSpec(1, 16, 64), ClusterSpec(4, 64, 64)),
            buffer_entries=4,
        )
        canonical = space.canonicalize(point)
        assert canonical.clusters == (ClusterSpec(4, 64, 64), ClusterSpec(1, 16, 64))

    def test_idempotent(self):
        space = DesignSpace()
        rng = random.Random(3)
        for _ in range(20):
            point = space.sample(rng)
            assert space.canonicalize(point) == point

    def test_permuted_genomes_collapse(self):
        space = DesignSpace()
        a = ClusterSpec(4, 64, 64)
        b = ClusterSpec(2, 32, 64)
        assert space.canonicalize(
            DesignPoint(clusters=(a, b), buffer_entries=4)
        ) == space.canonicalize(DesignPoint(clusters=(b, a), buffer_entries=4))

    def test_feasibility_is_the_canonical_orders(self):
        # Under the modulo-3 map clusters 0 and 1 rename 12 integer
        # registers and cluster 2 renames 11, so only the order with the
        # 12-register cluster last passes the validators, and
        # fattest-first puts it first.  Every order of the genome is one
        # point, infeasible in all of them.
        from repro.robustness.validate import validate_assignment, validate_config

        space = DesignSpace()
        small, big = ClusterSpec(1, 2, 12), ClusterSpec(1, 1, 13)
        listed = DesignPoint(clusters=(big, big, small), buffer_entries=1)
        validate_config(listed.to_config())
        validate_assignment(listed.assignment(), listed.to_config())
        canonical = space.canonicalize(listed)
        assert canonical.clusters == (small, big, big)
        with pytest.raises(ConfigError, match="canonical cluster order"):
            space.validate(listed)
        for order in ((big, big, small), (big, small, big), (small, big, big)):
            point = DesignPoint(clusters=order, buffer_entries=1)
            assert space.canonicalize(point) == canonical
            assert not space.is_feasible(point)

    def test_single_cluster_buffers_zeroed(self):
        space = DesignSpace()
        point = DesignPoint(clusters=(ClusterSpec(8, 128, 128),), buffer_entries=8)
        assert space.canonicalize(point).buffer_entries == 0


class TestSampling:
    def test_same_seed_same_points(self):
        space = DesignSpace()
        first = [space.sample(random.Random(11)) for _ in range(1)]
        again = [space.sample(random.Random(11)) for _ in range(1)]
        assert first == again
        rng_a, rng_b = random.Random(5), random.Random(5)
        assert [space.sample(rng_a) for _ in range(10)] == [
            space.sample(rng_b) for _ in range(10)
        ]

    def test_samples_are_feasible_canonical_members(self):
        space = DesignSpace()
        rng = random.Random(8)
        for _ in range(25):
            point = space.sample(rng)
            assert space.is_feasible(point)
            assert space.canonicalize(point) == point
            assert space.contains(point)

    def test_symmetric_space_samples_symmetric_points(self):
        space = DesignSpace(allow_asymmetric=False)
        rng = random.Random(2)
        for _ in range(10):
            point = space.sample(rng)
            assert len(set(point.clusters)) == 1

    def test_over_constrained_space_raises(self):
        # Register files far too small for the architectural namespace on
        # any permitted cluster count: every draw is infeasible.
        space = DesignSpace(min_clusters=1, max_clusters=1, registers=(16,))
        with pytest.raises(ConfigError, match="over-constrained"):
            space.sample(random.Random(0))


class TestGrid:
    def test_deterministic_and_feasible(self):
        space = DesignSpace()
        points = list(space.grid())
        assert points and points == list(space.grid())
        for point in points:
            assert space.is_feasible(point)
            assert len(set(point.clusters)) == 1  # symmetric lattice

    def test_scales_queue_and_registers_with_width(self):
        space = DesignSpace()
        for point in space.grid():
            spec = point.clusters[0]
            assert spec.queue_entries == space._nearest(
                space.queue_entries, 16 * spec.width
            )


class TestGeneticOperators:
    def test_mutate_deterministic_feasible_canonical(self):
        space = DesignSpace()
        parent = space.sample(random.Random(21))
        children = [space.mutate(parent, random.Random(9)) for _ in range(2)]
        assert children[0] == children[1]
        for _ in range(15):
            child = space.mutate(parent, random.Random(_))
            assert space.is_feasible(child)
            assert space.canonicalize(child) == child

    def test_crossover_deterministic_feasible_canonical(self):
        space = DesignSpace()
        a = space.sample(random.Random(31))
        b = space.sample(random.Random(32))
        assert space.crossover(a, b, random.Random(1)) == space.crossover(
            a, b, random.Random(1)
        )
        for seed in range(15):
            child = space.crossover(a, b, random.Random(seed))
            assert space.is_feasible(child)
            assert space.canonicalize(child) == child


class TestValidation:
    def test_no_clusters_rejected(self):
        with pytest.raises(ConfigError, match="no clusters"):
            DesignSpace().validate(DesignPoint(clusters=()))

    def test_nonpositive_axis_rejected(self):
        space = DesignSpace()
        with pytest.raises(ConfigError, match="positive integer"):
            space.validate(DesignPoint(clusters=(ClusterSpec(width=0),)))
        with pytest.raises(ConfigError, match="positive integer"):
            space.validate(
                DesignPoint(clusters=(ClusterSpec(queue_entries=-1),))
            )

    def test_bool_coordinates_rejected(self):
        with pytest.raises(ConfigError, match="positive integer"):
            DesignSpace().validate(DesignPoint(clusters=(ClusterSpec(width=True),)))

    def test_undersized_register_file_rejected(self):
        # A monolithic cluster must rename the whole namespace; 16
        # physical registers cannot hold the 31 architectural ones.
        space = DesignSpace()
        point = DesignPoint(clusters=(ClusterSpec(4, 64, 16),), buffer_entries=0)
        with pytest.raises(ConfigError, match="physical registers"):
            space.validate(point)
        assert not space.is_feasible(point)

    def test_bounds_checked_by_space(self):
        with pytest.raises(ConfigError, match="min_clusters"):
            DesignSpace(min_clusters=0)
        with pytest.raises(ConfigError, match="axis"):
            DesignSpace(widths=())

    def test_contains_is_axis_membership_not_feasibility(self):
        space = DesignSpace(widths=(2, 4))
        off_axis = DesignPoint(clusters=(ClusterSpec(8, 128, 128),), buffer_entries=0)
        assert space.is_feasible(off_axis)
        assert not space.contains(off_axis)
