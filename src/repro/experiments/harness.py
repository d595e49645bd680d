"""Common machinery for running the paper's experiments.

The methodology mirrors Section 4:

1. compile the workload's IL with the cluster-oblivious allocator — the
   *native binary*;
2. rescheduled binary: partition live ranges (the local scheduler by
   default) against the even/odd dual-cluster register assignment and
   re-allocate;
3. trace each binary with identical workload models and seed;
4. simulate: native binary on the single-cluster machine (the baseline),
   native binary on the dual-cluster machine (Table 2 column "none"),
   rescheduled binary on the dual-cluster machine (column "local");
5. report the percentage speedup ``100 - 100 * C_dual / C_single``
   (negative = slowdown), the paper's Table 2 metric.

The three simulations of step 4 are the sweep engine's unit of work: an
evaluation decomposes into :data:`PARTS`, each independently computable
from ``(workload, options)`` — that is what lets a Table 2 sweep run a
benchmark's parts as separate tasks, in-process or across ``--jobs N``
worker processes, with bit-identical results (every stage is seeded
and deterministic).  :func:`evaluate_part_with_retry` is that task's
body; :func:`evaluate_workload` runs all three in one call.

Compilation results and generated traces flow through a content-keyed
:class:`~repro.perf.cache.ArtifactCache` (an ephemeral in-memory one when
``options.cache`` is unset, so the native binary is still compiled and
traced only once per evaluation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.spans import SpanWriter

from repro.compiler.pipeline import CompilationResult, CompilerOptions, compile_program
from repro.core.partition.base import Partitioner
from repro.core.partition.local import LocalScheduler
from repro.core.registers import RegisterAssignment
from repro.errors import ReproError, SimulationError
from repro.perf.cache import ArtifactCache, compile_key, trace_key
from repro.robustness.faultinject import FaultPlan
from repro.robustness.retry import RetryPolicy, run_with_retry
from repro.robustness.validate import validate_run, validate_trace_length
from repro.uarch.config import ProcessorConfig, dual_cluster_config, single_cluster_config
from repro.uarch.engine import make_processor
from repro.uarch.processor import Processor, SimulationResult, simulate
from repro.workloads.generator import Workload
from repro.workloads.spec92 import DEFAULT_TRACE_LENGTH
from repro.workloads.tracegen import TraceGenerator

#: The three independently computable runs of one benchmark evaluation,
#: in the order the serial methodology performs (and validates) them.
PARTS = ("single", "dual_none", "dual_local")

#: The binary each part runs: ``single`` and ``dual_none`` the native
#: one, ``dual_local`` the locally rescheduled one.  Parts that share a
#: binary share its compile and trace through the artifact cache.
PART_BINARY = {"single": "native", "dual_none": "native", "dual_local": "local"}


def speedup_percent(single_cycles: int, dual_cycles: int) -> float:
    """Table 2's metric: ``100 - 100 * C_dual / C_single``.

    Positive values are speedups, negative values slowdowns.

    Raises:
        SimulationError: if the baseline retired in zero cycles (an empty
            or corrupt run) — the metric is undefined, and an untyped
            ``ZeroDivisionError`` must never escape the harness.
    """
    if single_cycles == 0:
        raise SimulationError(
            "single-cluster baseline reports zero cycles; speedup is undefined "
            "(empty trace or corrupt simulation result)",
            single_cycles=single_cycles,
            dual_cycles=dual_cycles,
        )
    return 100.0 - 100.0 * dual_cycles / single_cycles


@dataclass
class BenchmarkEvaluation:
    """All runs for one benchmark (one row of Table 2, plus diagnostics)."""

    name: str
    single: SimulationResult
    dual_none: SimulationResult
    dual_local: SimulationResult
    native_compile: CompilationResult
    local_compile: CompilationResult
    trace_length: int = 0

    @property
    def pct_none(self) -> float:
        return speedup_percent(self.single.cycles, self.dual_none.cycles)

    @property
    def pct_local(self) -> float:
        return speedup_percent(self.single.cycles, self.dual_local.cycles)


@dataclass
class PartOutcome:
    """One completed part of an evaluation (the parallel unit of work)."""

    part: str
    sim: SimulationResult
    compile_result: CompilationResult
    trace_length: int


@dataclass
class BenchmarkFailure:
    """Structured record of one benchmark that failed during a sweep.

    Sweeps catch per-benchmark :class:`~repro.errors.ReproError`\\ s into
    these records instead of aborting, so one sabotaged benchmark never
    costs the results of the others (graceful degradation)."""

    benchmark: str
    error_type: str
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_error(cls, benchmark: str, error: ReproError) -> "BenchmarkFailure":
        return cls(
            benchmark=benchmark,
            error_type=type(error).__name__,
            message=error.message,
            context=dict(error.context),
        )

    def format(self) -> str:
        ctx = " ".join(
            f"{k}={v}" for k, v in self.context.items() if k != "benchmark"
        )
        line = f"{self.benchmark:<10} {self.error_type:<20} {self.message}"
        return f"{line} [{ctx}]" if ctx else line


@dataclass
class EvaluationOptions:
    """Knobs for :func:`evaluate_workload`."""

    trace_length: int = DEFAULT_TRACE_LENGTH
    trace_seed: int = 7
    partitioner: Optional[Partitioner] = None  # default: LocalScheduler()
    single_config: Optional[ProcessorConfig] = None
    dual_config: Optional[ProcessorConfig] = None
    dual_assignment: Optional[RegisterAssignment] = None
    compiler: CompilerOptions = field(default_factory=CompilerOptions)
    #: Pre-flight validation of configs, assignments, and traces
    #: (repro.robustness.validate) before each simulation.
    validate: bool = True
    #: Enable the simulator's per-cycle invariant checker.
    self_check: bool = False
    #: Watchdog cycle budget per simulation (0 = derived default).
    cycle_budget: int = 0
    #: Worker processes for sweeps (1 = serial; 0 = one per CPU core).
    #: Consumed by ``run_table2`` and the other sweep drivers, not by a
    #: single ``evaluate_workload`` call.
    jobs: int = 1
    #: Artifact cache for compile/trace results.  ``None`` uses a fresh
    #: in-memory cache per evaluation (no cross-call reuse).
    cache: Optional[ArtifactCache] = None
    #: Deterministic retry policy for sweep rows (repro.robustness.retry).
    #: ``None`` = single attempt (no retries).
    retry: Optional["RetryPolicy"] = None
    #: Declarative fault-injection schedule (repro.robustness.faultinject).
    #: Applied per (benchmark, part, attempt); ``None`` = no injection.
    fault_plan: Optional["FaultPlan"] = None
    #: Which sweep attempt this evaluation is (threaded by the retry
    #: wrapper so transient fault specs can clear between attempts).
    fault_attempt: int = 0
    #: Seconds between sweep heartbeat lines (``obs.heartbeat``) during
    #: ``--jobs`` sweeps: ``None`` disables them, ``0`` emits after
    #: every row (deterministic; tests).  Excluded from
    #: ``options_fingerprint`` — heartbeats never change row values.
    heartbeat_interval: Optional[float] = 5.0
    #: Knobs of the supervised sweep executor (``repro.perf.executor``)
    #: for ``jobs != 1``.  All of them are excluded from
    #: ``options_fingerprint``: the executor decides *how* rows are
    #: computed, never their values (re-dispatch and the degraded serial
    #: path are bit-identical).
    #:
    #: Per-task deadline in seconds; ``None`` derives one from
    #: ``trace_length``.
    task_timeout: Optional[float] = None
    #: Re-dispatches allowed per task after a lost worker or expired
    #: deadline before the circuit breaker degrades the sweep to serial.
    redispatch_budget: int = 2
    #: Executor-level fault schedule (chaos: worker_kill/stall/partition),
    #: consulted by supervised *workers* at task pickup.  Stripped from
    #: the options shipped into workers' tasks so it cannot recurse.
    worker_fault_plan: Optional["FaultPlan"] = None
    #: Orchestration span sink (``repro.obs.spans.SpanWriter``) for the
    #: sweep drivers; ``None`` disables span tracing.  Observational
    #: like heartbeats — excluded from ``options_fingerprint`` and
    #: stripped from the options shipped into workers (it holds an open
    #: file; the parent writes every span from the task results).
    spans: Optional["SpanWriter"] = None

    def apply_robustness(self, config: ProcessorConfig) -> ProcessorConfig:
        """Thread the self-check / cycle-budget knobs into a config."""
        if config.self_check == self.self_check and not self.cycle_budget:
            return config
        return replace(
            config,
            self_check=self.self_check,
            cycle_budget=self.cycle_budget or config.cycle_budget,
        )


def _compile_cached(
    workload: Workload,
    assignment: RegisterAssignment,
    partitioner: Optional[Partitioner],
    options: EvaluationOptions,
    cache: ArtifactCache,
) -> tuple[CompilationResult, str]:
    """Compile through the artifact cache; returns (result, compile key)."""
    key = compile_key(
        workload.name, workload.program, assignment, partitioner, options.compiler
    )
    compiled = cache.get("compile", key)
    if compiled is None:
        compiled = compile_program(
            workload.program, assignment, partitioner=partitioner,
            options=options.compiler,
        )
        cache.put("compile", key, compiled)
    return compiled, key


def _trace_cached(
    workload: Workload,
    compiled: CompilationResult,
    ckey: str,
    options: EvaluationOptions,
    cache: ArtifactCache,
) -> Sequence:
    """Generate the dynamic trace through the artifact cache."""
    key = trace_key(
        ckey, workload.streams, workload.behaviors,
        options.trace_seed, options.trace_length,
    )
    trace = cache.get("trace", key)
    if trace is None:
        trace = TraceGenerator(
            compiled.machine, workload.streams, workload.behaviors,
            seed=options.trace_seed,
        ).generate(options.trace_length)
        cache.put("trace", key, trace)
    return trace


def evaluate_workload_part(
    workload: Workload,
    part: str,
    options: Optional[EvaluationOptions] = None,
    cache: Optional[ArtifactCache] = None,
    *,
    observe: Optional[Callable[[Processor, Sequence], None]] = None,
) -> PartOutcome:
    """Run one of the three Section 4 simulations for one workload.

    Each part compiles the binary it needs (native for ``single`` and
    ``dual_none``, rescheduled for ``dual_local``), traces it, validates
    the run, and simulates — all through the artifact cache, so parts
    that share a binary share the compile and trace work whenever they
    share a cache.

    ``observe(processor, trace)``, when given, runs on the built model
    after any fault plan is installed and before the run starts; it is
    where ``repro trace``/``repro stats`` attach their recorders.
    """
    if part not in PARTS:
        raise ValueError(f"unknown evaluation part {part!r}; valid: {PARTS}")
    options = options or EvaluationOptions()
    validate_trace_length(options.trace_length, benchmark=workload.name)
    if cache is None:
        cache = options.cache if options.cache is not None else ArtifactCache()

    dual_assignment = options.dual_assignment or RegisterAssignment.even_odd_dual()
    partitioner = options.partitioner or LocalScheduler()

    if PART_BINARY[part] == "local":
        compiled, ckey = _compile_cached(
            workload, dual_assignment, partitioner, options, cache
        )
    else:
        compiled, ckey = _compile_cached(
            workload, RegisterAssignment.single_cluster(), None, options, cache
        )
    trace = _trace_cached(workload, compiled, ckey, options, cache)
    plan = options.fault_plan
    if plan:
        # Sabotage a *copy* before validation, exactly where a mangled
        # trace file would enter the pipeline; the cached artifact stays
        # pristine, so a later clean attempt reuses it untouched.
        trace = plan.apply_trace_faults(
            workload.name, part, options.fault_attempt, trace
        )

    if part == "single":
        config = options.apply_robustness(
            options.single_config or single_cluster_config()
        )
        assignment = RegisterAssignment.single_cluster()
    else:
        config = options.apply_robustness(options.dual_config or dual_cluster_config())
        assignment = dual_assignment

    if options.validate:
        validate_run(
            config, assignment, trace, compiled.machine, benchmark=workload.name
        )
    if plan or observe is not None:
        processor = make_processor(config, assignment)
        if plan:
            for fault in plan.runtime_faults(
                workload.name,
                part,
                options.fault_attempt,
                clusters=len(processor.clusters),
            ):
                processor.install_fault(fault)
        if observe is not None:
            observe(processor, trace)
        sim = processor.run(trace)
    else:
        sim = simulate(trace, config, assignment)
    return PartOutcome(
        part=part,
        sim=sim,
        compile_result=compiled,
        trace_length=options.trace_length,
    )


def assemble_evaluation(
    name: str, outcomes: Sequence[PartOutcome]
) -> BenchmarkEvaluation:
    """Combine the three part outcomes into one :class:`BenchmarkEvaluation`."""
    by_part = {outcome.part: outcome for outcome in outcomes}
    missing = [part for part in PARTS if part not in by_part]
    if missing:
        raise ValueError(f"incomplete evaluation for {name!r}: missing {missing}")
    return BenchmarkEvaluation(
        name=name,
        single=by_part["single"].sim,
        dual_none=by_part["dual_none"].sim,
        dual_local=by_part["dual_local"].sim,
        native_compile=by_part["single"].compile_result,
        local_compile=by_part["dual_local"].compile_result,
        trace_length=by_part["single"].trace_length,
    )


def evaluate_workload(
    workload: Workload,
    options: Optional[EvaluationOptions] = None,
    cache: Optional[ArtifactCache] = None,
) -> BenchmarkEvaluation:
    """Run the full Section 4 methodology on one workload.

    Each part gets the options' retry policy first; an error that
    survives it propagates (the caller owns degradation).  With no
    policy every part runs once at ``options.fault_attempt``, which is
    how :func:`~repro.robustness.replay.replay` re-runs a recorded
    attempt.
    """
    options = options or EvaluationOptions()
    if cache is None:
        cache = options.cache if options.cache is not None else ArtifactCache()
    if options.retry is None:
        outcomes = [
            evaluate_workload_part(workload, part, options, cache) for part in PARTS
        ]
    else:
        outcomes = [
            evaluate_part_with_retry(workload, part, options, cache)[0]
            for part in PARTS
        ]
    return assemble_evaluation(workload.name, outcomes)


def evaluate_part_with_retry(
    workload: Workload,
    part: str,
    options: EvaluationOptions,
    cache: Optional[ArtifactCache] = None,
    sleep=time.sleep,
) -> tuple[PartOutcome, int]:
    """One evaluation part under the options' retry policy.

    The unit of resilience of every Table 2 task and of
    :func:`evaluate_workload`: attempt ``k`` re-runs the part with
    ``fault_attempt=k`` (so a transient fault spec can clear), the
    backoff schedule is keyed by ``benchmark:part`` (deterministic per
    seed), and the error that finally escapes carries ``part``,
    ``attempts``, and ``failure_class`` in its context for degradation
    records and replay bundles.

    Returns ``(outcome, attempts_used)``.
    """

    def one_attempt(attempt: int) -> PartOutcome:
        return evaluate_workload_part(
            workload, part, replace(options, fault_attempt=attempt), cache
        )

    try:
        result = run_with_retry(
            one_attempt,
            policy=options.retry,
            token=f"{workload.name}:{part}",
            sleep=sleep,
        )
    except ReproError as error:
        error.context.setdefault("part", part)
        raise
    return result.value, len(result.attempts)
