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

import difflib
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.errors import ConfigError, ReproError
from repro.experiments.harness import (
    BenchmarkEvaluation,
    BenchmarkFailure,
    EvaluationOptions,
    evaluate_workload_resilient,
)
from repro.workloads.spec92 import PAPER_TABLE2, SPEC92

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.robustness.journal import RunJournal


def _unknown_benchmark(name: str, valid: Iterable[str]) -> ConfigError:
    valid = sorted(valid)
    message = f"unknown benchmark {name!r}; valid benchmarks: {', '.join(valid)}"
    close = difflib.get_close_matches(name, valid, n=1)
    if close:
        message += f" (did you mean {close[0]!r}?)"
    return ConfigError(message, benchmark=name)


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
        for r in self.rows:
            if r.benchmark == benchmark:
                return r
        for failure in self.failures:
            if failure.benchmark == benchmark:
                raise ConfigError(
                    f"benchmark {benchmark!r} failed during the sweep "
                    f"({failure.error_type}: {failure.message}), so it has "
                    "no row; see result.failures for the full record",
                    benchmark=benchmark,
                    error_type=failure.error_type,
                )
        raise _unknown_benchmark(benchmark, [r.benchmark for r in self.rows])


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

    ``options.jobs != 1`` fans the benchmarks and their three runs each
    out to worker processes (``0`` = one per core) with bit-identical
    row values and the same degradation contract; ``options.cache``
    reuses compile/trace artifacts across runs.

    ``journal`` (a :class:`~repro.robustness.journal.RunJournal` or a
    run-directory path — the CLI's ``--resume``) makes the sweep
    crash-safe: every finished row is journaled durably before the sweep
    moves on, completed rows from a previous journal whose inputs
    fingerprint matches are reused verbatim (so the resumed table is
    bit-identical to an uninterrupted run), and unrecoverable failures
    leave a replay bundle under the run directory.
    """
    names = list(benchmarks) if benchmarks is not None else sorted(SPEC92)
    for name in names:
        if name not in SPEC92:
            raise _unknown_benchmark(name, SPEC92)
    options = options or EvaluationOptions()
    if isinstance(journal, (str,)) or (
        journal is not None and not hasattr(journal, "record_completed")
    ):
        from repro.robustness.journal import RunJournal

        journal = RunJournal(journal)

    # Span tracing: one content-derived trace id covers the serial,
    # parallel, resumed, and distributed forms of this exact sweep.
    spans = options.spans
    if spans is not None:
        from repro.obs.spans import sweep_trace_id

        spans.trace_id = sweep_trace_id("table2", options, names)

    def emit_row_spans(name: str, outcome, attempts: int) -> None:
        if spans is None:
            return
        from repro.obs.spans import evaluation_spans, failure_spans

        if isinstance(outcome, BenchmarkFailure):
            spans.write_all(failure_spans(spans.trace_id, outcome, attempts=attempts))
        else:
            spans.write_all(
                evaluation_spans(spans.trace_id, outcome, attempts=attempts)
            )

    fingerprint = ""
    evaluations: dict[str, BenchmarkEvaluation] = {}
    failures_by_name: dict[str, BenchmarkFailure] = {}
    pending = names
    if journal is not None:
        from repro.robustness.journal import options_fingerprint

        fingerprint = options_fingerprint(options)
        pending = []
        for name in names:
            entry = journal.completed(f"table2:{name}", fingerprint)
            reused = journal.load_artifact(entry)
            if isinstance(reused, BenchmarkEvaluation):
                evaluations[name] = reused
                # Reused rows re-emit their (content-derived) spans so a
                # resumed run's span set matches an uninterrupted one.
                emit_row_spans(name, reused, entry.attempts)
            else:
                pending.append(name)

    # Bundles and journal records describe the self-contained serial
    # run shape, whichever path computed the row.
    sealed_options = replace(
        options, jobs=1, cache=None, worker_fault_plan=None, spans=None
    )

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

    def record(name: str, outcome, attempts: int, elapsed_s: float = 0.0) -> None:
        if isinstance(outcome, BenchmarkFailure):
            failures_by_name[name] = outcome
            if journal is not None:
                _journal_failure(
                    journal, fingerprint, name, outcome, sealed_options, elapsed_s
                )
        else:
            evaluations[name] = outcome
            if journal is not None:
                journal.record_completed(
                    f"table2:{name}",
                    fingerprint,
                    artifact_value=outcome,
                    attempts=attempts,
                    elapsed_s=elapsed_s,
                )
        emit_row_spans(name, outcome, attempts)
        if heartbeat is not None:
            heartbeat.note(name)

    if options.jobs != 1 and len(pending) > 0:
        from repro.perf.parallel import run_table2_parallel

        run_table2_parallel(pending, options, on_benchmark=record, journal=journal)
    else:
        for name in pending:
            row_start = time.perf_counter()
            try:
                workload = SPEC92[name]()
            except ReproError as error:
                record(
                    name,
                    BenchmarkFailure.from_error(name, error),
                    1,
                    time.perf_counter() - row_start,
                )
                continue
            evaluation, failure, attempts = evaluate_workload_resilient(
                workload, options
            )
            record(
                name,
                failure if failure is not None else evaluation,
                attempts,
                time.perf_counter() - row_start,
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


def format_table2(result: Table2Result, detailed: bool = False) -> str:
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
    if detailed:
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


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_table2()
    print(format_table2(result, detailed=True))


if __name__ == "__main__":  # pragma: no cover
    main()
