"""Property-based fuzzing of N-cluster configurations.

Two layers: 200+ seeded samples from the gym's :class:`DesignSpace`
(every draw must expand to a validated config/assignment pair and
round-trip exactly), and hypothesis-driven arbitrary genomes (validation
must accept or raise a typed :class:`ConfigError` — never crash, never
clamp silently).  A final layer simulates a handful of sampled machines
with ``self_check=True`` on both engines: no invariant violations, and
bit-identical statistics.
"""

import random

import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.errors import ConfigError
from repro.experiments.harness import EvaluationOptions, evaluate_workload_part
from repro.gym.space import ClusterSpec, DesignPoint, DesignSpace
from repro.perf.cache import ArtifactCache
from repro.perf.fingerprint import fingerprint
from repro.workloads.spec92 import SPEC92

from tests.uarch.helpers import MODELS, using_model

#: The ISSUE's acceptance floor: the property suite samples >= 200
#: configurations in CI.
N_SAMPLED_CONFIGS = 200

SPACE = DesignSpace()
SAMPLE_RNG_SEED = 20260808


def sampled_points(count):
    rng = random.Random(SAMPLE_RNG_SEED)
    return [SPACE.sample(rng) for _ in range(count)]


class TestSampledConfigInvariants:
    def test_two_hundred_sampled_configs(self):
        seen = set()
        for point in sampled_points(N_SAMPLED_CONFIGS):
            # Feasible by construction: validation must not raise.
            config, assignment = SPACE.validate(point)
            assert config.num_clusters == point.num_clusters
            assert assignment.num_clusters == point.num_clusters
            # Issue widths sum to the genome's total width.
            assert sum(c.issue.total for c in config.clusters) == point.total_width
            # The shared front end scales with total width.
            assert config.retire_width == point.total_width
            assert config.fetch_width == config.dispatch_width
            # Canonical form is a fixpoint of sampling.
            assert SPACE.canonicalize(point) == point
            assert SPACE.contains(point)
            # Payload round-trip is exact, fingerprint included.
            clone = DesignPoint.from_dict(point.as_dict())
            assert clone == point
            assert fingerprint(clone.as_dict()) == fingerprint(point.as_dict())
            assert config.name == point.slug
            # Transfer buffers: present on multicluster machines only.
            if point.num_clusters > 1:
                assert all(
                    c.operand_buffer_entries == point.buffer_entries
                    and c.result_buffer_entries == point.buffer_entries
                    for c in config.clusters
                )
            else:
                assert config.clusters[0].operand_buffer_entries == 0
            seen.add(point.slug)
        # The space is genuinely explored, not one point repeated.
        assert len(seen) > N_SAMPLED_CONFIGS // 4

    def test_every_cluster_keeps_rename_headroom(self):
        # The deadlock-freedom rule behind validate_assignment: at least
        # one spare physical register per class beyond the accessible
        # architectural namespace.
        for point in sampled_points(N_SAMPLED_CONFIGS):
            config, assignment = SPACE.validate(point)
            from repro.isa.registers import RegisterClass, all_registers

            for index, cluster in enumerate(config.clusters):
                for rclass, capacity in (
                    (RegisterClass.INT, cluster.int_physical_registers),
                    (RegisterClass.FP, cluster.fp_physical_registers),
                ):
                    accessible = sum(
                        1
                        for reg in all_registers()
                        if reg.rclass is rclass
                        and not reg.is_zero
                        and index in assignment.clusters_of(reg)
                    )
                    assert accessible < capacity


def cluster_specs():
    return st.builds(
        ClusterSpec,
        width=st.integers(min_value=0, max_value=12),
        queue_entries=st.integers(min_value=0, max_value=160),
        registers=st.integers(min_value=0, max_value=160),
    )


def arbitrary_points():
    return st.builds(
        DesignPoint,
        clusters=st.tuples() | st.lists(cluster_specs(), min_size=1, max_size=5).map(tuple),
        buffer_entries=st.integers(min_value=-2, max_value=20),
        extra_globals=st.integers(min_value=-2, max_value=40),
    )


class TestArbitraryGenomes:
    @hyp_settings(max_examples=120, deadline=None)
    @given(point=arbitrary_points())
    def test_validate_accepts_or_raises_config_error(self, point):
        """Feasibility is a total, typed predicate over arbitrary genomes."""
        try:
            config, assignment = SPACE.validate(point)
        except ConfigError:
            assert not SPACE.is_feasible(point)
            return
        assert SPACE.is_feasible(point)
        assert config.num_clusters == assignment.num_clusters == point.num_clusters
        assert sum(c.issue.total for c in config.clusters) == point.total_width
        canonical = SPACE.canonicalize(point)
        assert SPACE.is_feasible(canonical)
        assert SPACE.canonicalize(canonical) == canonical

    @hyp_settings(max_examples=60, deadline=None)
    @given(point=arbitrary_points())
    def test_round_trip_is_exact_for_any_genome(self, point):
        assert DesignPoint.from_dict(point.as_dict()) == point


#: Machines actually simulated under self_check; a slice of the sampled
#: set plus the previously pathological shapes (asymmetric 3-cluster,
#: minimal transfer buffers).
SIMULATED_POINTS = sampled_points(8)[:6] + [
    DesignPoint(
        clusters=(ClusterSpec(4, 64, 64), ClusterSpec(2, 32, 64), ClusterSpec(1, 16, 64)),
        buffer_entries=4,
        extra_globals=2,
    ),
    DesignPoint(
        clusters=(ClusterSpec(2, 32, 64),) * 4,
        buffer_entries=1,
    ),
]


@pytest.fixture(scope="module")
def artifact_cache():
    return ArtifactCache()


class TestSelfCheckSimulation:
    @pytest.mark.parametrize("point", SIMULATED_POINTS, ids=lambda p: p.slug)
    def test_short_trace_runs_clean_on_both_engines(self, point, artifact_cache):
        """Sampled machines simulate without InvariantViolation and the
        two engines agree bit-for-bit."""
        options = EvaluationOptions(
            trace_length=400,
            self_check=True,
            dual_config=point.to_config(),
            dual_assignment=point.assignment(),
        )
        results = {}
        for engine, model in MODELS.items():
            with using_model(model):
                outcome = evaluate_workload_part(
                    SPEC92["compress"](), "dual_none", options, artifact_cache
                )
            results[engine] = (
                outcome.sim.cycles,
                fingerprint(outcome.sim.stats.as_dict()),
            )
        assert results["reference"] == results["batched"]
