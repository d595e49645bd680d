"""The batched engine is bit-identical to the reference model.

The contract (DESIGN.md §14): the batched model every run builds through
``make_processor`` is a faster kernel of the reference model, never a
different simulated machine.  Every stats counter — the full
``stats_fingerprint`` surface — must match the reference model exactly,
on every Table 2 benchmark, on both machines, when stepped in slices,
and under fault injection.  The harness-path tests substitute the
reference model at ``make_processor`` (``using_model``), so both models
run the same compile/trace/validate/simulate path.  The batched model
must also stay faster: :class:`TestEngineSpeedup` holds it to a
committed floor.
"""

import copy
import functools
import gc
import random
import time
from dataclasses import replace

import pytest

from repro.compiler.pipeline import compile_program
from repro.core.registers import RegisterAssignment
from repro.errors import WatchdogTimeout
from repro.experiments.harness import PARTS, EvaluationOptions, evaluate_workload_part
from repro.gym.space import ClusterSpec, DesignPoint, DesignSpace
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.perf.cache import ArtifactCache
from repro.perf.fingerprint import fingerprint
from repro.robustness.faultinject import DuplicateTransferEntry, StuckFunctionalUnit
from repro.uarch.config import dual_cluster_config, single_cluster_config
from repro.uarch.engine import BatchedProcessor, make_processor
from repro.uarch.processor import Processor, simulate
from repro.uarch.uop import RobEntry, Uop
from repro.workloads.kernels import KERNELS
from repro.workloads.spec92 import SPEC92
from repro.workloads.tracegen import TraceGenerator

from tests.uarch.helpers import MODELS, make_trace, trace_from_instructions, using_model

#: Short traces keep the 6 benchmarks x 2 machines x 2 engines sweep
#: CI-friendly; the compile/trace artifacts are shared via a
#: module-scoped cache, so each benchmark compiles once.
TRACE_LENGTH = 1_500

#: The kernels run longer: listwalk and strhash are where the batched
#: engine bulk-counts long dispatch-stall runs.
KERNEL_TRACE_LENGTH = 2_000

#: machine name -> the harness part that simulates it.
MACHINES = {"single-8way": "single", "dual-4way": "dual_none"}

#: Floor for the batched engine's simulation-only speedup over the
#: reference on the full Table 2 suite.  At 2k-instruction traces the
#: per-run setup (dispatch recipes, trace columns) amortises over few
#: cycles, so the speedup sits near its low end (2.2-2.4x on a shared
#: 2-vCPU x86_64 VM); the floor leaves room for a loaded machine yet
#: still catches a regression of the fused hot loop (DESIGN.md §14).
ENGINE_SPEEDUP_FLOOR = 1.5
SPEEDUP_TRACE_LENGTH = 2_000


@pytest.fixture(scope="module")
def artifact_cache():
    return ArtifactCache()


def _fingerprint(
    name: str,
    part: str,
    engine: str,
    cache: ArtifactCache,
    suite=SPEC92,
    trace_length: int = TRACE_LENGTH,
) -> str:
    options = EvaluationOptions(trace_length=trace_length, cache=cache)
    with using_model(MODELS[engine]):
        outcome = evaluate_workload_part(suite[name](), part, options, cache)
    return fingerprint(outcome.sim.stats.as_dict())


@pytest.fixture(scope="module")
def listwalk_trace():
    """A native listwalk trace: pointer-chasing loads keep the dispatch
    queues full for whole memory latencies (long dispatch-stall runs)."""
    workload = KERNELS["listwalk"]()
    native = compile_program(workload.program, RegisterAssignment.single_cluster())
    return TraceGenerator(
        native.machine, workload.streams, workload.behaviors, seed=7
    ).generate(KERNEL_TRACE_LENGTH)


def _processor(engine: str, machine: str = "dual", **overrides) -> Processor:
    if machine == "dual":
        config, assignment = dual_cluster_config(), RegisterAssignment.even_odd_dual()
    else:
        config, assignment = single_cluster_config(), RegisterAssignment.single_cluster()
    return MODELS[engine](replace(config, **overrides), assignment)


def _step_to_timeout(processor: Processor, trace):
    """Advance one loop step at a time until the watchdog fires.

    Returns the timeout and the cycle the raising step started from.
    """
    processor.start(trace)
    while True:
        before = processor.cycle
        try:
            finished = processor.advance(max_steps=1)
        except WatchdogTimeout as timeout:
            return timeout, before
        assert not finished, "the watchdog never fired"


class TestFactory:
    def test_make_processor_builds_the_batched_model(self):
        processor = make_processor(
            single_cluster_config(), RegisterAssignment.single_cluster()
        )
        assert type(processor) is BatchedProcessor

    @pytest.mark.parametrize("engine", MODELS)
    def test_harness_builds_the_substituted_model(self, engine, artifact_cache):
        # The identity tests compare the models on the harness's own
        # path; its plain and its observed branch must both build the
        # model under test.
        options = EvaluationOptions(trace_length=200, cache=artifact_cache)
        observed = []
        with using_model(MODELS[engine]) as built:
            evaluate_workload_part(SPEC92["ora"](), "single", options, artifact_cache)
            evaluate_workload_part(
                SPEC92["ora"](), "dual_none", options, artifact_cache,
                observe=lambda processor, trace: observed.append(type(processor)),
            )
        assert built == [MODELS[engine]] * 2
        assert observed == [MODELS[engine]]


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

    @pytest.mark.parametrize("part", PARTS)
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_fingerprints_match(self, name, part, artifact_cache):
        reference, batched = (
            _fingerprint(
                name, part, engine, artifact_cache,
                suite=KERNELS, trace_length=KERNEL_TRACE_LENGTH,
            )
            for engine in ("reference", "batched")
        )
        assert batched == reference, (
            f"kernel {name} ({part}): batched engine diverged from the "
            f"reference model"
        )


class TestEngineSpeedup:
    def test_batched_engine_clears_the_speedup_floor(self, artifact_cache):
        # Every benchmark x every part on both engines.  Compile and
        # tracegen are prewarmed in the shared cache, so the timed calls
        # measure simulation (plus the validation both pay) alone.  The
        # engines alternate part by part and each part keeps its faster
        # of two runs, so a burst of load on a shared host cannot land
        # on one engine only.
        parts = [(name, part) for name in sorted(SPEC92) for part in PARTS]
        for name, part in parts:
            _fingerprint(
                name, part, "batched", artifact_cache,
                trace_length=SPEEDUP_TRACE_LENGTH,
            )
        workloads = {name: SPEC92[name]() for name in SPEC92}
        engines = ("reference", "batched")
        options = EvaluationOptions(
            trace_length=SPEEDUP_TRACE_LENGTH, cache=artifact_cache
        )
        seconds = dict.fromkeys(engines, 0.0)
        prints = {engine: {} for engine in engines}
        for name, part in parts:
            for engine in engines:
                runs = []
                for _ in range(2):
                    with using_model(MODELS[engine]):
                        start = time.perf_counter()
                        outcome = evaluate_workload_part(
                            workloads[name], part, options, artifact_cache
                        )
                        runs.append(time.perf_counter() - start)
                seconds[engine] += min(runs)
                prints[engine][f"{name}/{part}"] = fingerprint(
                    outcome.sim.stats.as_dict()
                )
        assert prints["batched"] == prints["reference"]
        speedup = seconds["reference"] / seconds["batched"]
        print(
            f"engine speedup {speedup:.2f}x (reference {seconds['reference']:.3f}s,"
            f" batched {seconds['batched']:.3f}s; floor {ENGINE_SPEEDUP_FLOOR}x)"
        )
        assert speedup >= ENGINE_SPEEDUP_FLOOR, (
            f"batched engine is only {speedup:.2f}x the reference on "
            f"simulation; the floor is {ENGINE_SPEEDUP_FLOOR}x"
        )


class TestStallRunSkip:
    def test_batched_engine_jumps_over_dispatch_stall_runs(self, listwalk_trace):
        # The reference steps every stalled cycle; the batched engine
        # counts a dispatch-stall run in one loop step.  Same statistics,
        # fewer steps.
        steps = {}
        results = {}
        for engine in MODELS:
            processor = _processor(engine)
            processor.start(listwalk_trace)
            taken = 1
            while not processor.advance(max_steps=1):
                taken += 1
            steps[engine] = taken
            stats = processor.finalize().stats
            assert stats.dispatch_stall_cycles > 0
            results[engine] = fingerprint(stats.as_dict())
        assert results["batched"] == results["reference"]
        assert steps["batched"] < steps["reference"]

    def test_stepwise_advance_matches_straight_run(self, listwalk_trace):
        # The listwalk trace makes bulk-counted stall runs end on (and
        # straddle) the max_steps boundaries.
        config = dual_cluster_config()
        for trace in (make_trace(), listwalk_trace):
            straight = make_processor(config, RegisterAssignment.even_odd_dual())
            expected = fingerprint(straight.run(trace).stats.as_dict())

            stepper = make_processor(config, RegisterAssignment.even_odd_dual())
            stepper.start(trace)
            while not stepper.advance(max_steps=37):
                pass
            assert fingerprint(stepper.finalize().stats.as_dict()) == expected

    def test_reassignment_points_in_a_stall_heavy_trace(self, listwalk_trace):
        # A reassignment point drains the machine before it reaches the
        # resource checks; stall runs before and after the switches must
        # still be counted exactly.
        trace = list(listwalk_trace)
        for index, assignment in (
            (700, RegisterAssignment.low_high_dual()),
            (1400, RegisterAssignment.even_odd_dual()),
        ):
            trace[index] = copy.copy(trace[index])
            trace[index].reassign = assignment
        results = {}
        for engine in MODELS:
            stats = _processor(engine).run(trace).stats
            assert stats.reassignments == 2
            results[engine] = fingerprint(stats.as_dict())
        assert results["batched"] == results["reference"]

    def test_homeless_head_is_stepped(self):
        # Two dependent load misses per cluster keep four-entry dispatch
        # queues full of stores while unconditional branches (no registers,
        # so steered by the alternating homeless pointer) reach the
        # dispatch head.  Each blocked attempt advances the pointer and
        # charges the other cluster's queue, so such a run must be stepped.
        instrs = [
            MachineInstruction(Opcode.LDQ, dest=int_reg(2), srcs=(int_reg(0),)),
            MachineInstruction(Opcode.LDQ, dest=int_reg(3), srcs=(int_reg(1),)),
            MachineInstruction(Opcode.LDQ, dest=int_reg(4), srcs=(int_reg(2),)),
            MachineInstruction(Opcode.LDQ, dest=int_reg(5), srcs=(int_reg(3),)),
        ]
        for _ in range(4):
            instrs.append(MachineInstruction(Opcode.STQ, srcs=(int_reg(4), int_reg(0))))
            instrs.append(MachineInstruction(Opcode.STQ, srcs=(int_reg(5), int_reg(1))))
        instrs.extend(MachineInstruction(Opcode.BR, target="b0") for _ in range(6))
        addresses = {0: 0x10000, 1: 0x20000, 2: 0x30000, 3: 0x40000}
        dual = dual_cluster_config()
        small = replace(dual.clusters[0], dispatch_queue_entries=4)
        results = {}
        for engine in MODELS:
            config = replace(dual, clusters=(small, small))
            processor = MODELS[engine](config, RegisterAssignment.even_odd_dual())
            stats = processor.run(
                trace_from_instructions(instrs, addresses=addresses)
            ).stats
            # Both clusters' queues block the homeless head in turn.
            assert all(c.queue_full_stalls > 0 for c in stats.clusters)
            results[engine] = fingerprint(stats.as_dict())
        assert results["batched"] == results["reference"]


class TestWatchdogParity:
    def test_cycle_budget_raises_on_batched_engine(self):
        processor = make_processor(
            dual_cluster_config(), RegisterAssignment.even_odd_dual()
        )
        with pytest.raises(WatchdogTimeout) as info:
            processor.run(make_trace(), max_cycles=3)
        assert "budget" in info.value.message
        assert info.value.diagnostics

    @pytest.mark.parametrize(
        "machine, overrides",
        [
            # listwalk on the dual machine stalls dispatch from cycle 37
            # to the load completion at 53; the budget runs out at 46.
            ("dual", {"cycle_budget": 45}),
            # On the single machine a 16-cycle window expires at cycle 72,
            # one cycle before the stall run's closing event at 73.
            ("single", {"progress_window": 16}),
        ],
        ids=["cycle-budget", "progress-window"],
    )
    def test_timeout_inside_a_stall_run_matches_reference(
        self, machine, overrides, listwalk_trace
    ):
        outcomes = {}
        for engine in MODELS:
            processor = _processor(engine, machine, **overrides)
            timeout, before = _step_to_timeout(processor, listwalk_trace)
            outcomes[engine] = (
                timeout.cycle,
                timeout.seq,
                fingerprint(processor.finalize().stats.as_dict()),
                timeout.diagnostics,
            )
            if engine == "reference":
                assert before == timeout.cycle - 1  # steps every cycle
            else:
                # The timeout fired at the end of a bulk-counted run.
                assert before < timeout.cycle - 1
        assert outcomes["batched"] == outcomes["reference"]

    @pytest.mark.parametrize("engine", MODELS)
    def test_tight_progress_window_still_completes(self, engine):
        # The window is larger than any single stall the trace produces
        # (memory latency is 16), so a correct engine finishes; an engine
        # that forgets to refresh the progress clock on any productive
        # cycle trips the no-forward-progress watchdog instead.
        config = replace(dual_cluster_config(), progress_window=64)
        processor = MODELS[engine](config, RegisterAssignment.even_odd_dual())
        result = processor.run(make_trace())
        assert result.stats.instructions == 400


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
        for engine in MODELS:
            processor = MODELS[engine](
                dual_cluster_config(), RegisterAssignment.even_odd_dual()
            )
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

#: Two paper clusters with one-entry transfer buffers: ora then takes
#: dozens of replay exceptions per thousand instructions.
REPLAY_HEAVY = DesignPoint(clusters=(ClusterSpec(), ClusterSpec()), buffer_entries=1)


def _gym_outcome(point: DesignPoint, benchmark: str, engine: str, cache):
    options = EvaluationOptions(
        trace_length=800,
        dual_config=point.to_config(),
        dual_assignment=point.assignment(),
    )
    with using_model(MODELS[engine]):
        return evaluate_workload_part(SPEC92[benchmark](), "dual_none", options, cache)


class TestNClusterIdentity:
    @pytest.mark.parametrize("point", GYM_POINTS, ids=lambda p: p.slug)
    def test_batched_matches_reference(self, point, artifact_cache):
        results = {}
        for engine in MODELS:
            outcome = _gym_outcome(point, "compress", engine, artifact_cache)
            results[engine] = (
                outcome.sim.cycles,
                fingerprint(outcome.sim.stats.as_dict()),
            )
        assert results["batched"] == results["reference"]

    def test_replay_heavy_point_matches_reference(self, artifact_cache):
        results = {}
        for engine in MODELS:
            outcome = _gym_outcome(REPLAY_HEAVY, "ora", engine, artifact_cache)
            stats = outcome.sim.stats
            # The replay path must actually run, not merely exist.
            assert stats.replay_exceptions > 0
            results[engine] = (outcome.sim.cycles, fingerprint(stats.as_dict()))
        assert results["batched"] == results["reference"]


# --------------------------------------------------------------------------
# Retire and squash break the entry<->uop and master<->slave reference
# cycles (DESIGN.md §14), so a finished run leaves no instruction for the
# cyclic garbage collector.

#: Four 2-wide clusters: every multi-helper (N-slave) distribution shape.
FOUR_CLUSTERS = DesignPoint(clusters=(ClusterSpec(2, 32, 64),) * 4)

#: name -> (benchmark, config, register assignment)
RELEASE_MACHINES = {
    "single": ("compress", single_cluster_config(), RegisterAssignment.single_cluster()),
    "dual-even-odd": (
        "compress",
        dual_cluster_config(),
        RegisterAssignment.even_odd_dual(),
    ),
    "gym-4-cluster": ("compress", FOUR_CLUSTERS.to_config(), FOUR_CLUSTERS.assignment()),
    "replay-heavy": ("ora", REPLAY_HEAVY.to_config(), REPLAY_HEAVY.assignment()),
}


@functools.lru_cache(maxsize=None)
def _native_trace(benchmark: str):
    workload = SPEC92[benchmark]()
    native = compile_program(workload.program, RegisterAssignment.single_cluster())
    return TraceGenerator(
        native.machine, workload.streams, workload.behaviors, seed=7
    ).generate(TRACE_LENGTH)


def _live_instructions() -> int:
    return sum(isinstance(obj, (Uop, RobEntry)) for obj in gc.get_objects())


class TestRefcountRelease:
    @pytest.mark.parametrize("machine", sorted(RELEASE_MACHINES))
    def test_no_instruction_outlives_its_run(self, machine):
        benchmark, config, assignment = RELEASE_MACHINES[machine]
        trace = _native_trace(benchmark)
        gc.collect()
        before = _live_instructions()
        gc.disable()
        try:
            result = simulate(trace, config, assignment)
            left = _live_instructions() - before
        finally:
            gc.enable()
        assert result.stats.instructions == len(trace)
        if machine == "replay-heavy":
            assert result.stats.replay_exceptions > 0
        assert left == 0
