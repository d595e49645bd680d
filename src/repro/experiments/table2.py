"""Experiment E2: Table 2 — speedup ratios per benchmark.

Regenerates the paper's headline table: the percentage speedup/slowdown
``100 - 100 * C_dual / C_single`` for each SPEC92 stand-in when (column 2,
"none") the native binary runs on the dual-cluster machine, and (column 3,
"local") the local-scheduler-rescheduled binary runs on it.

Paper reference values (8-way machines)::

    benchmark   none   local
    compress    -14     +6
    doduc       -21    -15
    gcc1        -15    -10
    ora          -5    -22
    su2cor      -36    -25
    tomcatv     -41    -19

Absolute agreement is not expected (synthetic workloads, reconstructed
machine); the reproduction targets the table's *shape* — see
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from repro.errors import ConfigError, ReproError
from repro.experiments.harness import (
    PART_BINARY,
    PARTS,
    BenchmarkEvaluation,
    BenchmarkFailure,
    EvaluationOptions,
    assemble_evaluation,
    evaluate_part_with_retry,
)
from repro.perf.cache import ArtifactCache
from repro.workloads.spec92 import PAPER_TABLE2, SPEC92, check_benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.journal import RunJournal


@dataclass
class Table2Row:
    """One benchmark's entry, with the paper's values for reference."""

    benchmark: str
    pct_none: float
    pct_local: float
    paper_none: Optional[int]
    paper_local: Optional[int]
    #: The full evaluation behind the row.  Optional for real: hand-built
    #: rows (tests, external tabulations) carry only the percentages, and
    #: consumers must guard accordingly.
    evaluation: Optional[BenchmarkEvaluation] = field(repr=False, default=None)


@dataclass
class Table2Result:
    rows: list[Table2Row]
    #: Benchmarks that failed (graceful degradation): the sweep always
    #: completes and reports the rows it could compute plus these records.
    failures: list[BenchmarkFailure] = field(default_factory=list)

    def row(self, benchmark: str) -> Table2Row:
        for failure in self.failures:
            if failure.benchmark == benchmark:
                raise ConfigError(
                    f"benchmark {benchmark!r} failed during the sweep "
                    f"({failure.error_type}: {failure.message}), so it has "
                    "no row; see result.failures for the full record",
                    benchmark=benchmark,
                    error_type=failure.error_type,
                )
        check_benchmark(benchmark, [r.benchmark for r in self.rows])
        return next(r for r in self.rows if r.benchmark == benchmark)


def _journal_failure(
    journal: "RunJournal",
    fingerprint: str,
    name: str,
    failure: BenchmarkFailure,
    options: EvaluationOptions,
    elapsed_s: float,
) -> None:
    """Journal a degraded row, serializing its replay bundle first."""
    from repro.robustness.replay import capture_bundle

    attempts = int(failure.context.get("attempts", 1))
    bundle = capture_bundle(
        name,
        options,
        error_type=failure.error_type,
        error_message=failure.message,
        error_context=failure.context,
        part=failure.context.get("part"),
        attempt=max(0, attempts - 1),
    )
    path = bundle.save(journal.bundle_path(f"table2-{name}"))
    failure.context["replay_bundle"] = str(path)
    journal.record_failed(
        f"table2:{name}",
        fingerprint,
        error={
            "type": failure.error_type,
            "message": failure.message,
            "part": failure.context.get("part"),
        },
        attempts=attempts,
        elapsed_s=elapsed_s,
        bundle=str(path.relative_to(journal.run_dir)),
    )


def _row_fingerprint(name: str, options: EvaluationOptions) -> str:
    """Journal fingerprint of a row: its built workload as well as the
    options, so a changed generator never serves a stale row.  A
    benchmark whose build fails has no workload to hash; its row fails
    the same way in its task and is journaled as failed under the
    options alone."""
    from repro.robustness.journal import options_fingerprint, workload_fingerprint

    try:
        workload = SPEC92[name]()
    except ReproError:
        return options_fingerprint(options)
    return workload_fingerprint("table2-row/v1", workload, options)


def _run_part(name: str, part: str, options: EvaluationOptions, cache, build):
    """One (benchmark, part) task: ``(name, part, outcome, attempts, elapsed_s)``.

    ``build()`` returns the benchmark's workload.  The options' retry
    policy runs here, and a :class:`ReproError` that survives it (or
    the build) becomes a :class:`BenchmarkFailure` here too, so its
    context (failing part, attempts, failure class) survives a worker's
    trip home.
    """
    start = time.perf_counter()
    try:
        outcome, attempts = evaluate_part_with_retry(build(), part, options, cache)
    except ReproError as error:
        outcome = BenchmarkFailure.from_error(name, error)
        attempts = error.context.get("attempts", 1)
    return name, part, outcome, attempts, time.perf_counter() - start


def _sweep_task(item: tuple[str, str, EvaluationOptions]):
    """One (benchmark, part) task in a worker process.

    :func:`_run_part`'s value plus the worker cache's counter delta,
    which the parent merges into ``options.cache.stats``.
    """
    from repro.perf.executor import _worker_cache

    name, part, options = item
    cache = _worker_cache()
    baseline = cache.stats.snapshot()
    value = _run_part(name, part, options, cache, SPEC92[name])
    return value + (cache.stats.delta(baseline),)


def run_table2(
    benchmarks: Optional[Iterable[str]] = None,
    options: Optional[EvaluationOptions] = None,
    journal: Optional[Union["RunJournal", str]] = None,
) -> Table2Result:
    """Run the Table 2 experiment over the selected benchmarks.

    Unknown benchmark names are rejected up front with a
    :class:`ConfigError`.  A benchmark whose compile/trace/simulation
    fails with a :class:`ReproError` becomes a
    :class:`~repro.experiments.harness.BenchmarkFailure` record in
    ``result.failures``; the remaining rows are still computed, and
    ``options.retry`` grants transient failures a deterministic attempt
    budget first.

    Every row is three tasks, one per part, run through
    :func:`~repro.perf.parallel.fan_out`: in-process for
    ``options.jobs == 1``, otherwise across worker processes (``0`` =
    one per core) with bit-identical rows.  A benchmark with a failed
    part yields one failure — the first failed part in
    :data:`~repro.experiments.harness.PARTS` order — and no row; its
    attempts count the parts up to and including that one.
    ``options.cache`` reuses compile/trace artifacts across runs.

    ``journal`` (a :class:`~repro.robustness.journal.RunJournal` or a
    run-directory path — the CLI's ``--resume``) makes the sweep
    crash-safe: every finished row is journaled durably before the sweep
    moves on, completed rows from a previous journal whose inputs
    fingerprint (the built workload and the options) matches are reused
    verbatim (so the resumed table is
    bit-identical to an uninterrupted run), and unrecoverable failures
    leave a replay bundle under the run directory.
    """
    from repro.perf.executor import SweepTask
    from repro.perf.parallel import fan_out

    names = list(benchmarks) if benchmarks is not None else sorted(SPEC92)
    for name in names:
        check_benchmark(name)
    options = options or EvaluationOptions()
    if isinstance(journal, (str,)) or (
        journal is not None and not hasattr(journal, "record_completed")
    ):
        from repro.robustness.journal import RunJournal

        journal = RunJournal(journal)

    # Span tracing: one content-derived trace id covers the serial,
    # parallel, resumed, and sharded forms of this exact sweep.
    spans = options.spans
    if spans is not None:
        from repro.obs.spans import sweep_trace_id

        spans.trace_id = sweep_trace_id("table2", options, names)

    def emit_row_spans(outcome, attempts: int) -> None:
        if spans is None:
            return
        from repro.obs.spans import evaluation_spans, failure_spans

        if isinstance(outcome, BenchmarkFailure):
            spans.write_all(failure_spans(spans.trace_id, outcome, attempts=attempts))
        else:
            spans.write_all(
                evaluation_spans(spans.trace_id, outcome, attempts=attempts)
            )

    fingerprints: dict[str, str] = {}
    evaluations: dict[str, BenchmarkEvaluation] = {}
    failures_by_name: dict[str, BenchmarkFailure] = {}
    pending = names
    if journal is not None:
        pending = []
        for name in names:
            fingerprints[name] = _row_fingerprint(name, options)
            entry = journal.completed(f"table2:{name}", fingerprints[name])
            reused = journal.load_artifact(entry)
            if isinstance(reused, BenchmarkEvaluation):
                evaluations[name] = reused
                # Reused rows re-emit their (content-derived) spans so a
                # resumed run's span set matches an uninterrupted one.
                emit_row_spans(reused, entry.attempts)
            else:
                pending.append(name)

    # Every task runs on a self-contained serial option set, which is
    # also what bundles and journal records describe: the parent-side
    # cache object is not shipped (each worker holds its own tier),
    # worker-fault injection must not recurse into the task itself, and
    # the span writer's open file stays in the parent.
    sealed = replace(
        options, jobs=1, cache=None, worker_fault_plan=None, spans=None
    )
    tasks = [
        SweepTask(name, part, sealed, affinity=f"{name}:{PART_BINARY[part]}")
        for name in pending
        for part in PARTS
    ]

    # Parallel sweeps report progress (rows done, ETA, cache hit rate,
    # journal lag) and journal each heartbeat durably.
    heartbeat = None
    if options.jobs != 1 and pending:
        from repro.obs.heartbeat import Heartbeat

        heartbeat = Heartbeat(
            len(pending),
            label="table2",
            interval_s=options.heartbeat_interval,
            journal=journal,
            cache=options.cache,
            spans=spans,
        )

    # In-process tasks arrive in benchmark order, so one row is open at
    # a time: its workload is built once, its parts share one cache
    # (``options.cache``, else a fresh one dropped with the row), and
    # the parts after a failed one are skipped — the row is decided.
    open_row: dict[str, Any] = {}

    def run_serial(task: SweepTask):
        name = task.benchmark
        if open_row.get("name") != name:
            open_row.clear()
            open_row["name"] = name
            open_row["cache"] = (
                options.cache if options.cache is not None else ArtifactCache()
            )
        if "failure" in open_row:
            return name, task.part, open_row["failure"], 0, 0.0, None

        def build():
            if "workload" not in open_row:
                open_row["workload"] = SPEC92[name]()
            return open_row["workload"]

        value = _run_part(name, task.part, sealed, open_row["cache"], build)
        if isinstance(value[2], BenchmarkFailure):
            open_row["failure"] = value[2]
        # Counted in options.cache already: no delta to merge.
        return value + (None,)

    parts_home: dict[tuple[str, str], tuple] = {}

    def deliver(task: SweepTask, value: tuple) -> None:
        name, part, outcome, attempts, elapsed_s, stats_delta = value
        if stats_delta is not None and options.cache is not None:
            options.cache.stats.merge(stats_delta)
        parts_home[(name, part)] = (outcome, attempts, elapsed_s)
        if not all((name, p) in parts_home for p in PARTS):
            return
        outcomes, attempts, seconds = zip(*(parts_home.pop((name, p)) for p in PARTS))
        failed = [i for i, o in enumerate(outcomes) if isinstance(o, BenchmarkFailure)]
        # A failed row is its first failed part; its attempts stop there.
        row_attempts = sum(attempts[: failed[0] + 1] if failed else attempts)
        elapsed_s = sum(seconds)
        if failed:
            failure = outcomes[failed[0]]
            failures_by_name[name] = failure
            if journal is not None:
                _journal_failure(
                    journal, fingerprints[name], name, failure, sealed, elapsed_s
                )
            emit_row_spans(failure, row_attempts)
        else:
            evaluation = assemble_evaluation(name, outcomes)
            evaluations[name] = evaluation
            if journal is not None:
                journal.record_completed(
                    f"table2:{name}",
                    fingerprints[name],
                    artifact_value=evaluation,
                    attempts=row_attempts,
                    elapsed_s=elapsed_s,
                )
            emit_row_spans(evaluation, row_attempts)
        if heartbeat is not None:
            heartbeat.note(name)

    fan_out(
        _sweep_task,
        tasks,
        options.jobs,
        deliver,
        run_serial=run_serial,
        journal=journal,
        cache_dir=options.cache.cache_dir if options.cache is not None else None,
        trace_length=options.trace_length,
        task_timeout=options.task_timeout,
        redispatch_budget=options.redispatch_budget,
        worker_fault_plan=options.worker_fault_plan,
        seed=options.trace_seed,
        self_check=options.self_check,
        spans=spans,
    )

    if spans is not None:
        from repro.obs.spans import evaluation_spans, sweep_span

        # The root span's duration is the sweep's total virtual work —
        # rebuilt from the evaluations so it is identical however (and
        # in how many runs) the rows were computed.
        task_spans = [
            span
            for name in names
            if name in evaluations
            for span in evaluation_spans(spans.trace_id, evaluations[name])
        ]
        spans.write(sweep_span(spans.trace_id, "table2", task_spans))

    rows = [_row_for(name, evaluations[name]) for name in names if name in evaluations]
    failures = [failures_by_name[n] for n in names if n in failures_by_name]
    return Table2Result(rows, failures)


def _row_for(name: str, evaluation: BenchmarkEvaluation) -> Table2Row:
    paper = PAPER_TABLE2.get(name)
    return Table2Row(
        benchmark=name,
        pct_none=evaluation.pct_none,
        pct_local=evaluation.pct_local,
        paper_none=paper[0] if paper else None,
        paper_local=paper[1] if paper else None,
        evaluation=evaluation,
    )


def format_table2(result: Table2Result) -> str:
    """Paper-style rendering of the Table 2 reproduction."""
    lines = [
        "Table 2: speedup ratios 100 - 100*(C_dual/C_single)  [positive = speedup]",
        f"{'benchmark':<10} {'none':>8} {'local':>8}   {'paper none':>10} {'paper local':>11}",
    ]
    for row in result.rows:
        paper_none = f"{row.paper_none:+d}" if row.paper_none is not None else "n/a"
        paper_local = f"{row.paper_local:+d}" if row.paper_local is not None else "n/a"
        lines.append(
            f"{row.benchmark:<10} {row.pct_none:+8.1f} {row.pct_local:+8.1f}   "
            f"{paper_none:>10} {paper_local:>11}"
        )
    if result.failures:
        lines.append("")
        lines.append(f"failed benchmarks ({len(result.failures)}):")
        lines.append(f"{'benchmark':<10} {'error':<20} detail")
        for failure in result.failures:
            lines.append(failure.format())
    lines.append("")
    lines.append(
        f"{'benchmark':<10} {'1-clu cyc':>10} {'none cyc':>10} {'local cyc':>10} "
        f"{'dual% none':>10} {'dual% local':>11} {'replays n/l':>11} "
        f"{'br acc':>7} {'d$ miss':>8}"
    )
    for row in result.rows:
        ev = row.evaluation
        if ev is None:
            lines.append(
                f"{row.benchmark:<10} (percentages only; no evaluation attached)"
            )
            continue
        lines.append(
            f"{row.benchmark:<10} {ev.single.cycles:>10} {ev.dual_none.cycles:>10} "
            f"{ev.dual_local.cycles:>10} "
            f"{100 * ev.dual_none.stats.dual_fraction:>9.1f}% "
            f"{100 * ev.dual_local.stats.dual_fraction:>10.1f}% "
            f"{ev.dual_none.stats.replay_exceptions:>5}"
            f"/{ev.dual_local.stats.replay_exceptions:<5} "
            f"{100 * ev.single.stats.branch_accuracy:>6.1f}% "
            f"{100 * ev.single.stats.dcache_miss_rate:>7.1f}%"
        )
    return "\n".join(lines)
