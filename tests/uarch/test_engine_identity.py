"""The batched engine is bit-identical to the reference model.

The contract (DESIGN.md §14): ``ProcessorConfig.engine`` selects a
simulation kernel, never a different simulated machine.  Every stats
counter — the full ``stats_fingerprint`` surface — must match the
reference model exactly, on every Table 2 benchmark, on both machines,
through checkpoints, and under fault injection.
"""

import pickle
from dataclasses import replace

import pytest

from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError, WatchdogTimeout
from repro.experiments.harness import PARTS, EvaluationOptions, evaluate_workload_part
from repro.perf.cache import ArtifactCache
from repro.perf.fingerprint import fingerprint
from repro.robustness.faultinject import DuplicateTransferEntry, StuckFunctionalUnit
from repro.uarch.config import dual_cluster_config, single_cluster_config
from repro.uarch.engine import ENGINES, BatchedProcessor, make_processor
from repro.uarch.processor import Processor
from repro.workloads.spec92 import SPEC92

from tests.robustness.test_checkpoint import make_trace

#: Short traces keep the 6 benchmarks x 2 machines x 2 engines sweep
#: CI-friendly; the compile/trace artifacts are shared via a
#: module-scoped cache, so each benchmark compiles once.
TRACE_LENGTH = 1_500

#: machine name -> the harness part that simulates it.
MACHINES = {"single-8way": "single", "dual-4way": "dual_none"}


@pytest.fixture(scope="module")
def artifact_cache():
    return ArtifactCache()


def _fingerprint(name: str, part: str, engine: str, cache: ArtifactCache) -> str:
    options = EvaluationOptions(
        trace_length=TRACE_LENGTH, cache=cache, engine=engine
    )
    outcome = evaluate_workload_part(SPEC92[name](), part, options, cache)
    return fingerprint(outcome.sim.stats.as_dict())


class TestFactory:
    def test_engine_knob_selects_the_class(self):
        single = single_cluster_config()
        reference = replace(single, engine="reference")
        assert type(make_processor(reference, RegisterAssignment.single_cluster())) is Processor
        # Batched is the default kernel; reference is the named oracle.
        assert isinstance(
            make_processor(single, RegisterAssignment.single_cluster()),
            BatchedProcessor,
        )

    def test_unknown_engine_rejected(self):
        config = replace(single_cluster_config(), engine="warp")
        with pytest.raises(ConfigError, match="unknown engine"):
            make_processor(config, RegisterAssignment.single_cluster())

    def test_engines_registry(self):
        assert ENGINES == ("reference", "batched")


class TestFingerprintIdentity:
    """Full-suite bit-identity: the tentpole's correctness contract."""

    @pytest.mark.parametrize("machine", sorted(MACHINES))
    @pytest.mark.parametrize("name", sorted(SPEC92))
    def test_stats_fingerprints_match(self, name, machine, artifact_cache):
        part = MACHINES[machine]
        reference = _fingerprint(name, part, "reference", artifact_cache)
        batched = _fingerprint(name, part, "batched", artifact_cache)
        assert batched == reference, (
            f"{name} on {machine}: batched engine diverged from the "
            f"reference model"
        )

    def test_dual_local_part_matches_too(self, artifact_cache):
        # The rescheduled binary exercises different steering; one
        # benchmark suffices since the machine model is the same.
        reference = _fingerprint("compress", "dual_local", "reference", artifact_cache)
        batched = _fingerprint("compress", "dual_local", "batched", artifact_cache)
        assert batched == reference

    def test_parts_cover_both_machines(self):
        assert set(MACHINES.values()) < set(PARTS)


class TestWatchdogParity:
    def test_cycle_budget_raises_on_batched_engine(self):
        config = replace(dual_cluster_config(), engine="batched")
        processor = make_processor(config, RegisterAssignment.even_odd_dual())
        with pytest.raises(WatchdogTimeout) as info:
            processor.run(make_trace(), max_cycles=3)
        assert "budget" in info.value.message
        assert info.value.diagnostics

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tight_progress_window_still_completes(self, engine):
        # The window is larger than any single stall the trace produces
        # (memory latency is 16), so a correct engine finishes; an engine
        # that forgets to refresh the progress clock on any productive
        # cycle trips the no-forward-progress watchdog instead.
        config = replace(dual_cluster_config(), engine=engine, progress_window=64)
        processor = make_processor(config, RegisterAssignment.even_odd_dual())
        result = processor.run(make_trace())
        assert result.stats.instructions == 400


class TestCheckpointParity:
    def test_stepwise_advance_matches_straight_run(self):
        config = replace(dual_cluster_config(), engine="batched")
        straight = make_processor(config, RegisterAssignment.even_odd_dual())
        expected = fingerprint(straight.run(make_trace()).stats.as_dict())

        stepper = make_processor(config, RegisterAssignment.even_odd_dual())
        stepper.start(make_trace())
        while not stepper.advance(max_steps=37):
            pass
        assert fingerprint(stepper.finalize().stats.as_dict()) == expected

    def test_pickle_round_trip_resumes_bit_identically(self):
        config = replace(dual_cluster_config(), engine="batched")
        straight = make_processor(config, RegisterAssignment.even_odd_dual())
        expected = fingerprint(straight.run(make_trace()).stats.as_dict())

        processor = make_processor(config, RegisterAssignment.even_odd_dual())
        processor.start(make_trace())
        assert not processor.advance(max_steps=120)
        resumed = pickle.loads(pickle.dumps(processor))
        # Dispatch recipes are keyed by object identity, so they must not
        # survive the round trip; they rebuild lazily on resume.
        assert resumed._recipes == {}
        resumed.advance()
        assert fingerprint(resumed.finalize().stats.as_dict()) == expected


class TestFaultInjectionParity:
    @pytest.mark.parametrize(
        "fault_factory",
        [
            lambda: StuckFunctionalUnit(at_cycle=40, cluster=0),
            lambda: DuplicateTransferEntry(at_cycle=40, cluster=1, kind="operand"),
        ],
        ids=["stuck-divider", "duplicate-transfer"],
    )
    def test_fault_runs_match_across_engines(self, fault_factory):
        # Faults mutate live machine state mid-run; both engines must
        # observe the sabotage at the same per-cycle point and end with
        # the same stats (neither trace has FP divides, so the stuck
        # divider degrades nothing and the duplicate entry only squats
        # on capacity — the runs complete either way).
        results = {}
        for engine in ENGINES:
            config = replace(dual_cluster_config(), engine=engine)
            processor = make_processor(config, RegisterAssignment.even_odd_dual())
            fault = fault_factory()
            processor.install_fault(fault)
            result = processor.run(make_trace())
            assert fault.fired
            results[engine] = fingerprint(result.stats.as_dict())
        assert results["batched"] == results["reference"]


class TestEventLoopProgress:
    def test_process_events_returns_processed_count(self):
        """Event-only cycles must register as forward progress.

        The watchdog counts a cycle as productive when *any* stage did
        work, including the event loop; ``_process_events`` falling
        through without a return value made event-only cycles look idle
        and tripped spurious no-forward-progress timeouts.
        """
        processor = Processor(
            single_cluster_config(), RegisterAssignment.single_cluster()
        )
        processor.start(make_trace(4))
        processor._schedule(3, ("fetch_resume", 99))
        processor._schedule(3, ("fetch_resume", 98))
        assert processor._process_events(3) == 2
        assert processor._process_events(3) == 0


# --------------------------------------------------------------------------
# N-cluster differential sweep: the batched engine must stay bit-identical
# across the whole gym design space, not just the paper's two machines.

import random

from repro.gym.space import ClusterSpec, DesignPoint, DesignSpace


def _gym_points():
    """Twenty seeded random machines, five per cluster count 1-4."""
    points = []
    rng = random.Random(97)
    for n in (1, 2, 3, 4):
        space = DesignSpace(min_clusters=n, max_clusters=n)
        points.extend(space.sample(rng) for _ in range(5))
    return points


#: Hand-picked 3-cluster asymmetric machine: the shape that exposed the
#: two-cluster hardcoding in multi-helper distribution (a slave rename
#: once looked up a third cluster's register and crashed).
ASYMMETRIC_3CLUSTER = DesignPoint(
    clusters=(ClusterSpec(4, 64, 64), ClusterSpec(2, 32, 64), ClusterSpec(1, 16, 64)),
    buffer_entries=4,
    extra_globals=2,
)

GYM_POINTS = _gym_points() + [ASYMMETRIC_3CLUSTER]


class TestNClusterIdentity:
    @pytest.mark.parametrize("point", GYM_POINTS, ids=lambda p: p.slug)
    def test_batched_matches_reference(self, point, artifact_cache):
        options = EvaluationOptions(
            trace_length=800,
            dual_config=point.to_config(),
            dual_assignment=point.assignment(),
        )
        results = {}
        for engine in ENGINES:
            outcome = evaluate_workload_part(
                SPEC92["compress"](),
                "dual_none",
                replace(options, engine=engine),
                artifact_cache,
            )
            results[engine] = (
                outcome.sim.cycles,
                fingerprint(outcome.sim.stats.as_dict()),
            )
        assert results["batched"] == results["reference"]
