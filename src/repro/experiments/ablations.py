"""Experiment E10 and the DESIGN.md ablations.

Every sweep has one shape: build one benchmark, vary one design option,
and run each value as a labelled point.  :data:`SWEEPS` holds one
:class:`Sweep` per option, keyed by its ``repro ablations --sweeps``
name, and :func:`run_ablation` runs any of them.

The paper evaluated both 4-way and 8-way machines but printed only the
8-way results ("these more clearly show the important trends"); the
``width`` sweep reproduces the 4-way companion.  The remaining sweeps
probe the design choices DESIGN.md calls out: the local scheduler's
imbalance threshold and scope, transfer-buffer depth, partitioner
choice, the architectural-register-to-cluster map, the Section 6
future-work transformations, and the single cluster's dispatch queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.partition import (
    AffinityPartitioner,
    LocalScheduler,
    RandomPartitioner,
    RoundRobinPartitioner,
)
from repro.core.registers import RegisterAssignment
from repro.errors import ConfigError
from repro.experiments.harness import BenchmarkEvaluation, EvaluationOptions
from repro.perf.cache import ArtifactCache
from repro.uarch.config import (
    dual_cluster_2way_config,
    dual_cluster_config,
    single_cluster_4way_config,
    single_cluster_config,
    with_buffer_entries,
)
from repro.workloads.generator import Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.journal import RunJournal
    from repro.robustness.retry import RetryPolicy

Build = Callable[[], Workload]
Point = tuple[str, Workload, EvaluationOptions]


@dataclass
class AblationPoint:
    label: str
    pct_none: float
    pct_local: float
    dual_fraction: float
    replays: int


@dataclass
class AblationResult:
    name: str
    points: list[AblationPoint] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"ablation: {self.name}",
            f"{'point':<22} {'none %':>8} {'local %':>8} {'dual %':>7} {'replays':>8}",
        ]
        for p in self.points:
            lines.append(
                f"{p.label:<22} {p.pct_none:+8.1f} {p.pct_local:+8.1f} "
                f"{100 * p.dual_fraction:>6.1f}% {p.replays:>8}"
            )
        return "\n".join(lines)


@dataclass
class QueueSizePoint:
    entries: int
    cycles: int
    branch_accuracy: float
    dcache_miss_rate: float
    issue_disorder: float


@dataclass
class QueueSizeResult:
    name: str
    points: list[QueueSizePoint]

    def format(self) -> str:
        lines = [
            f"ablation: {self.name}",
            f"{'entries':>8} {'cycles':>9} {'br acc':>8} {'d$ miss':>8} {'disorder':>9}",
        ]
        for p in self.points:
            lines.append(
                f"{p.entries:>8} {p.cycles:>9} {100 * p.branch_accuracy:>7.2f}% "
                f"{100 * p.dcache_miss_rate:>7.2f}% {p.issue_disorder:>9.2f}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Sweep:
    """One design option and the values :func:`run_ablation` tries."""

    title: str
    #: Each point journals under ``{prefix}:{label}``.
    prefix: str
    defaults: tuple
    #: ``point(build, value, base)`` turns one value into a labelled
    #: point; ``base`` carries the trace length and retry policy.
    point: Callable[[Build, Any, EvaluationOptions], Point]
    #: Points run only the ``single`` part and report
    #: :class:`QueueSizePoint` rows (the dispatch-queue sweep); otherwise
    #: they run all three Section 4 parts.
    single_part: bool = False
    #: ``skip_reason(workload)`` says why no value of the option can
    #: change ``workload`` (``None``: it can); ``None`` here means the
    #: sweep applies to every workload.
    skip_reason: Optional[Callable[[Workload], Optional[str]]] = None


def _threshold(build: Build, threshold: int, base: EvaluationOptions) -> Point:
    partitioner = LocalScheduler(imbalance_threshold=threshold)
    return f"threshold={threshold}", build(), replace(base, partitioner=partitioner)


def _buffers(build: Build, depth: int, base: EvaluationOptions) -> Point:
    dual = with_buffer_entries(dual_cluster_config(), depth)
    return f"entries={depth}", build(), replace(base, dual_config=dual)


#: A fresh partitioner per point: the local scheduler keeps per-run state.
_PARTITIONERS = {
    "local": LocalScheduler,
    "affinity-kl": AffinityPartitioner,
    "round-robin": RoundRobinPartitioner,
    "random": lambda: RandomPartitioner(seed=3),
}


def _partitioner(build: Build, name: str, base: EvaluationOptions) -> Point:
    return name, build(), replace(base, partitioner=_PARTITIONERS[name]())


_ASSIGNMENTS = {
    "even/odd": RegisterAssignment.even_odd_dual,
    "low/high": RegisterAssignment.low_high_dual,
}


def _assignment(build: Build, name: str, base: EvaluationOptions) -> Point:
    return name, build(), replace(base, dual_assignment=_ASSIGNMENTS[name]())


def _unroll(build: Build, factor: int, base: EvaluationOptions) -> Point:
    """Section 6 future work: unroll inner loops before partitioning.

    "Loop unrolling could be used to generate a code schedule in which
    multiple iterations of a loop were interleaved, with each iteration
    scheduled to use a separate cluster."  Unrolled copies are mostly
    independent, so the local scheduler can spread them; the sweep
    measures whether that pays on this workload.
    """
    from repro.compiler.passes.unroll import unroll_program
    from repro.workloads.branch_models import LoopBranch

    workload = build()
    if factor > 1 and unroll_program(workload.program, factor):
        # Trip counts now describe unrolled trips: scale the loop
        # behaviours down so dynamic iteration counts stay comparable.
        for name, model in list(workload.behaviors.items()):
            if isinstance(model, LoopBranch):
                workload.behaviors[name] = LoopBranch(
                    max(1, model.trip_count // factor), model.jitter
                )
    return f"unroll x{factor}", workload, base


def _no_self_loop(workload: Workload) -> Optional[str]:
    from repro.compiler.passes.unroll import find_self_loops

    if find_self_loops(workload.program):
        return None
    return "it has no self loop to unroll"


def _globals(build: Build, count: int, base: EvaluationOptions) -> Point:
    """Section 6 future work: allocate key variables to global registers.

    "A second scheme is to allocate key variables to global registers so
    that the variables can be accessed from within each cluster without an
    inter-cluster data transfer."  Sweeps the number of extra architectural
    registers made global (beyond SP/GP); each consumes a physical register
    in every cluster, so the benefit trades against register pressure.
    """
    from repro.isa.registers import int_reg

    extras = tuple(int_reg(2 + i) for i in range(count))
    assignment = RegisterAssignment.even_odd_dual(extra_globals=extras)
    return f"extra globals={count}", build(), replace(base, dual_assignment=assignment)


def _queue(build: Build, entries: int, base: EvaluationOptions) -> Point:
    """The paper's explanation for the compress anomaly, isolated.

    Section 4.2 attributes compress's *speedup* on the dual-cluster
    machine to the single cluster's larger dispatch queue: more in-flight
    branches between prediction and table update (stale predictor state)
    and more issue disorder (cache behaviour).  Each point runs the same
    native binary on a single-cluster machine that differs only in
    dispatch queue size, exposing how much queue depth costs or buys.
    """
    single = single_cluster_config(name=f"single-q{entries}")
    cluster = replace(single.clusters[0], dispatch_queue_entries=entries)
    config = replace(single, clusters=(cluster,))
    return f"entries={entries}", build(), replace(base, single_config=config)


def _scope(build: Build, scope: str, base: EvaluationOptions) -> Point:
    """Whole-block vs prefix-only imbalance estimation in the local
    scheduler (the interpretation choice documented in
    :func:`repro.core.balance.imbalance_around`)."""
    partitioner = LocalScheduler(imbalance_scope=scope)
    return f"scope={scope}", build(), replace(base, partitioner=partitioner)


def _width(build: Build, width: int, base: EvaluationOptions) -> Point:
    """E10: 8-way single vs 2x4 dual, and 4-way single vs 2x2 dual."""
    if width == 4:
        base = replace(
            base,
            single_config=single_cluster_4way_config(),
            dual_config=dual_cluster_2way_config(),
        )
    elif width != 8:
        raise ValueError(f"the width sweep has 8-way and 4-way machines, not {width}")
    return f"{width}-way vs 2x{width // 2}-way", build(), base


#: Every ablation, keyed by its ``--sweeps`` name, in the CLI's order.
SWEEPS: dict[str, Sweep] = {
    "threshold": Sweep(
        "local-scheduler imbalance threshold",
        "threshold", (0, 1, 2, 4, 8, 16), _threshold,
    ),
    "buffers": Sweep(
        "transfer-buffer entries per cluster",
        "buffer-depth", (2, 4, 8, 16, 32), _buffers,
    ),
    "partitioner": Sweep(
        "partitioner (column 'local %' is the partitioned binary)",
        "partitioner", tuple(_PARTITIONERS), _partitioner,
    ),
    "assignment": Sweep(
        "register-to-cluster assignment",
        "assignment", tuple(_ASSIGNMENTS), _assignment,
    ),
    "unroll": Sweep(
        "loop unrolling factor (Section 6 future work)",
        "unroll", (1, 2, 4), _unroll, skip_reason=_no_self_loop,
    ),
    "globals": Sweep(
        "extra global registers (Section 6 future work)",
        "global-widening", (0, 2, 4), _globals,
    ),
    "queue": Sweep(
        "single-cluster dispatch-queue size",
        "queue-size", (32, 64, 128, 256), _queue, single_part=True,
    ),
    "scope": Sweep(
        "local-scheduler imbalance scope",
        "imbalance-scope", ("block", "prefix"), _scope,
    ),
    "width": Sweep(
        "issue width (single vs clustered pair)",
        "issue-width", (8, 4), _width,
    ),
}


def _evaluate_point(item, cache) -> BenchmarkEvaluation:
    """One point's three Section 4 runs (worker-safe)."""
    from repro.experiments.harness import evaluate_workload

    workload, options, memo = item
    return evaluate_workload(workload, options, cache=cache, memo=memo)


def _queue_point(item, cache) -> QueueSizePoint:
    """One point's single-cluster run (worker-safe)."""
    from repro.experiments.harness import evaluate_part_with_retry

    workload, options, memo = item
    outcome, _ = evaluate_part_with_retry(workload, "single", options, cache, memo=memo)
    stats = outcome.sim.stats
    return QueueSizePoint(
        entries=options.single_config.clusters[0].dispatch_queue_entries,
        cycles=stats.cycles,
        branch_accuracy=stats.branch_accuracy,
        dcache_miss_rate=stats.dcache_miss_rate,
        issue_disorder=stats.issue_disorder,
    )


def sweep_skip_reason(name: str, build: Build) -> Optional[str]:
    """Why the sweep ``SWEEPS[name]`` cannot change ``build()``'s
    workload, naming the SPEC92 benchmarks it does apply to; ``None``
    when it can."""
    sweep = SWEEPS[name]
    if sweep.skip_reason is None:
        return None
    workload = build()
    reason = sweep.skip_reason(workload)
    if reason is None:
        return None
    from repro.workloads.spec92 import SPEC92

    fits = [b for b in sorted(SPEC92) if sweep.skip_reason(SPEC92[b]()) is None]
    return (
        f"the {name} sweep does not apply to {workload.name}: {reason}; "
        f"it applies to {', '.join(fits) or 'no SPEC92 benchmark'}"
    )


def run_ablation(
    name: str,
    build: Build,
    values: Optional[tuple] = None,
    *,
    trace_length: int = 30_000,
    jobs: int = 1,
    journal: Optional["RunJournal"] = None,
    retry: Optional["RetryPolicy"] = None,
) -> AblationResult | QueueSizeResult:
    """Run the sweep ``SWEEPS[name]`` over ``values`` (default: its own).

    Returns an :class:`AblationResult`, or a :class:`QueueSizeResult`
    for the ``queue`` sweep.  Every stage is seeded, so ``jobs != 1``
    returns exactly the serial points, and a point reused by
    ``--resume`` *is* the original pickled value.  Points journal under
    ``{prefix}:{label}``, keyed by a fingerprint of their inputs — the
    built workload and the evaluation options — so a changed sweep
    parameter invalidates exactly the changed rows, and a journal written
    for one benchmark serves no point of another.  All
    points share one artifact cache, so points that run the same binary
    compile and trace it once, and one simulation memo, so a part that
    several points share (most points re-run the same ``single`` and
    ``dual_none`` parts) is simulated once.  Points sent to worker
    processes each carry their own copy of the memo.  A sweep that
    cannot change the workload (:func:`sweep_skip_reason`) raises
    :class:`~repro.errors.ConfigError` rather than print identical rows.
    """
    from repro.perf.parallel import run_sweep
    from repro.robustness.journal import workload_fingerprint

    reason = sweep_skip_reason(name, build)
    if reason is not None:
        raise ConfigError(reason, sweep=name)
    sweep = SWEEPS[name]
    values = sweep.defaults if values is None else values
    base = EvaluationOptions(trace_length=trace_length, retry=retry)
    points = [sweep.point(build, value, base) for value in values]
    fn, simulations = (_queue_point, 1) if sweep.single_part else (_evaluate_point, 3)
    memo: dict = {}
    results = run_sweep(
        fn,
        [(workload, options, memo) for _, workload, options in points],
        jobs,
        keys=[
            (
                f"{sweep.prefix}:{label}",
                workload_fingerprint("ablation-point/v1", workload, options),
            )
            for label, workload, options in points
        ]
        if journal is not None
        else [],
        journal=journal,
        cache=ArtifactCache(),
        trace_length=simulations * trace_length,
    )
    if sweep.single_part:
        return QueueSizeResult(f"{sweep.title} ({build().name})", results)
    return AblationResult(
        sweep.title,
        [
            AblationPoint(
                label=label,
                pct_none=ev.pct_none,
                pct_local=ev.pct_local,
                dual_fraction=ev.dual_local.stats.dual_fraction,
                replays=ev.dual_local.stats.replay_exceptions,
            )
            for (label, _, _), ev in zip(points, results)
        ],
    )
