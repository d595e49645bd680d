"""Command-line interface for the reproduction's experiments.

Usage (after ``pip install -e .`` / ``python setup.py develop``)::

    python -m repro table2 [--trace-length N] [--benchmarks a b ...] [--jobs N]
                           [--retries N] [--resume DIR] [--shard NAME]
                           [--task-timeout S] [--redispatch-budget N]
                           [--spans] [--spans-dir DIR]
    python -m repro scenarios
    python -m repro figure6 [--sweep]
    python -m repro cycle-time [--trace-length N] [--jobs N]
    python -m repro ablations [--benchmark NAME] [--trace-length N] [--jobs N]
                              [--retries N] [--resume DIR]
    python -m repro reassignment [--phase-length N]
    python -m repro explore [--driver random|grid|evolutionary|halving]
                            [--seed N] [--budget N] [--population N]
                            [--generations N] [--trace-length N] [--jobs N]
                            [--trajectory FILE] [--frontier FILE]
                            [--resume DIR]
    python -m repro replay BUNDLE.json
    python -m repro chaos [--quick] [--seed N] [--rounds N] [--run-dir DIR]
                          [--worker-faults]
    python -m repro journal merge SHARD [SHARD ...] --output DIR [--dry-run]
    python -m repro spans summarize RUN_DIR
    python -m repro spans export RUN_DIR [--format chrome] --output FILE
    python -m repro top RUN_DIR [--once] [--interval S]
    python -m repro trace BENCHMARK [--machine single|dual|dual-local]
                          [--window A B] [--jsonl FILE]
    python -m repro stats BENCHMARK [--machine ...] [--json FILE] [--prom FILE]

Diagnostics go through stdlib ``logging`` (logger namespace ``repro.*``):
``-v`` turns on debug detail, ``--quiet`` silences everything below
errors.  Results always go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

log = logging.getLogger("repro.cli")


def setup_logging(verbosity: int = 0, quiet: bool = False) -> None:
    """Configure the ``repro`` logger tree for one CLI invocation.

    Diagnostics (cache stats, sweep heartbeats, warnings) flow through
    ``logging`` to stderr; ``-v`` selects DEBUG with logger-name
    prefixes, ``--quiet`` drops everything below ERROR.  The handler is
    rebuilt on every call so it always binds the *current*
    ``sys.stderr`` (pytest's capture swaps it between tests).
    """
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    if verbosity >= 1:
        level = logging.DEBUG
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    else:
        level = logging.ERROR if quiet else logging.INFO
        handler.setFormatter(logging.Formatter("%(message)s"))
    root.setLevel(level)
    root.addHandler(handler)
    root.propagate = False


def _make_cache(args: argparse.Namespace):
    """The artifact cache requested by --cache / --cache-dir (or None)."""
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is None and getattr(args, "cache", False):
        from repro.perf.cache import default_cache_dir

        cache_dir = default_cache_dir()
    if cache_dir is None:
        return None
    from repro.perf.cache import ArtifactCache

    return ArtifactCache(cache_dir)


def _make_retry(args: argparse.Namespace):
    """The retry policy requested by --retries (or None for one attempt)."""
    retries = getattr(args, "retries", 1)
    if retries is None or retries <= 1:
        return None
    from repro.robustness.retry import RetryPolicy

    return RetryPolicy(max_attempts=retries)


def _make_journal(args: argparse.Namespace):
    """The run journal requested by --resume DIR [--shard NAME] (or None)."""
    from repro.robustness.journal import open_journal

    return open_journal(
        getattr(args, "resume", None), shard=getattr(args, "shard", None)
    )


def _make_spans(args: argparse.Namespace):
    """The span writer requested by --spans / --spans-dir (or None).

    ``--spans-dir DIR`` names the sink directory explicitly; bare
    ``--spans`` writes next to the journal (``--resume DIR``) or into
    the current directory.  ``--shard NAME`` shards the span file the
    same way it shards the journal.
    """
    spans_dir = getattr(args, "spans_dir", None)
    if spans_dir is None and getattr(args, "spans", False):
        spans_dir = getattr(args, "resume", None) or "."
    if spans_dir is None:
        return None
    from repro.obs.spans import SpanWriter

    return SpanWriter(spans_dir, shard=getattr(args, "shard", None))


def _evaluation_options(args: argparse.Namespace):
    from repro.experiments.harness import EvaluationOptions

    return EvaluationOptions(
        trace_length=args.trace_length,
        self_check=getattr(args, "self_check", False),
        cycle_budget=getattr(args, "cycle_budget", 0),
        jobs=getattr(args, "jobs", 1),
        cache=_make_cache(args),
        retry=_make_retry(args),
        task_timeout=getattr(args, "task_timeout", None),
        redispatch_budget=getattr(args, "redispatch_budget", 2),
        spans=_make_spans(args),
    )


def _report_cache(cache) -> None:
    if cache is not None:
        log.info("%s", cache.stats.format())


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.experiments.table2 import format_table2, run_table2

    options = _evaluation_options(args)
    journal = _make_journal(args)
    try:
        result = run_table2(args.benchmarks or None, options, journal=journal)
    finally:
        if journal is not None:
            journal.close()
        if options.spans is not None:
            options.spans.close()
    print(format_table2(result))
    if options.spans is not None:
        log.info(
            "spans: %d emitted -> %s", options.spans.emitted, options.spans.path
        )
    _report_cache(options.cache)
    if result.failures:
        log.warning(
            "warning: %d benchmark(s) failed; see the failure table above",
            len(result.failures),
        )


def _cmd_scenarios(_args: argparse.Namespace) -> None:
    from repro.experiments.scenarios import format_timeline, run_all_scenarios

    for timeline in run_all_scenarios():
        print(format_timeline(timeline))
        print()


def _cmd_figure6(args: argparse.Namespace) -> None:
    from repro.experiments.figure6 import main as figure6_main
    from repro.experiments.figure6 import run_figure6_sweep

    if not args.sweep:
        figure6_main()
        return
    print("Figure 6 walk-through across imbalance thresholds")
    for threshold, result in run_figure6_sweep():
        print(
            f"  threshold={threshold}: blocks={result.block_order} "
            f"order={result.assignment_order} "
            f"matches_paper={result.matches_paper}"
        )


def _cmd_cycle_time(args: argparse.Namespace) -> None:
    from repro.experiments.cycle_time import (
        format_cycle_time_analysis,
        run_cycle_time_analysis,
    )
    from repro.experiments.table2 import run_table2
    from repro.timing.analysis import format_cycle_time_report

    print(format_cycle_time_report())
    print()
    options = _evaluation_options(args)
    table2 = run_table2(args.benchmarks or None, options)
    print(format_cycle_time_analysis(run_cycle_time_analysis(table2)))
    _report_cache(options.cache)


def _cmd_explore(args: argparse.Namespace) -> None:
    from repro.gym.drivers import SearchSpec, run_search
    from repro.gym.fitness import GymSettings
    from repro.gym.report import (
        format_frontier,
        frontier_record,
        header_record,
        trial_record,
        write_frontier,
        write_trajectory,
    )
    from repro.gym.space import DesignSpace

    settings = GymSettings(
        benchmarks=(
            tuple(args.benchmarks) if args.benchmarks else GymSettings().benchmarks
        ),
        trace_length=args.trace_length,
        trace_seed=args.trace_seed,
        tech=args.tech,
        part=args.part,
        self_check=getattr(args, "self_check", False),
        cycle_budget=getattr(args, "cycle_budget", 0),
    )
    spec = SearchSpec(
        driver=args.driver,
        seed=args.seed,
        budget=args.budget,
        population=args.population,
        generations=args.generations,
        elite=args.elite,
        tournament=args.tournament,
        mutation_rate=args.mutation_rate,
        eta=args.eta,
    )
    space = DesignSpace(max_clusters=args.max_clusters)
    cache = _make_cache(args)
    journal = _make_journal(args)
    spans = _make_spans(args)
    try:
        result = run_search(
            spec,
            space,
            settings,
            jobs=getattr(args, "jobs", 1),
            cache=cache,
            journal=journal,
            spans=spans,
        )
    finally:
        if journal is not None:
            journal.close()
        if spans is not None:
            spans.close()
    if spans is not None:
        log.info("spans: %d emitted -> %s", spans.emitted, spans.path)
    if args.trajectory:
        records = [header_record(spec.driver, spec.seed, settings, result.baseline)]
        records.extend(trial_record(i, g, t) for i, g, t in result.trials)
        records.append(frontier_record(result.frontier))
        write_trajectory(args.trajectory, records)
        log.info("trajectory: %s", args.trajectory)
    if args.frontier:
        write_frontier(args.frontier, result.frontier)
        log.info("frontier: %s", args.frontier)
    print(format_frontier(result.frontier, result.baseline))
    best = result.best
    if best is not None:
        print(
            f"\nbest speedup: {best.point.slug} ({best.speedup:.4f}x over the "
            f"1x8-way baseline; {len(result.trials)} trials, "
            f"{result.journal_hits} replayed from the journal)"
        )
    _report_cache(cache)


def _cmd_ablations(args: argparse.Namespace) -> None:
    from repro.experiments.ablations import SWEEPS, run_ablation
    from repro.workloads.spec92 import SPEC92, check_benchmark

    check_benchmark(args.benchmark)
    retry = _make_retry(args)
    journal = _make_journal(args)
    try:
        for name in args.sweeps or SWEEPS:
            result = run_ablation(
                name,
                SPEC92[args.benchmark],
                trace_length=args.trace_length,
                jobs=args.jobs,
                journal=journal,
                retry=retry,
            )
            print(result.format())
            print()
    finally:
        if journal is not None:
            journal.close()


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.obs.runner import observe_benchmark
    from repro.uarch.pipeline_view import render_pipeline

    run = observe_benchmark(
        args.benchmark,
        args.machine,
        trace_length=args.trace_length,
        record_events=True,
        jsonl=args.jsonl,
        sample_interval=None,
        attribute_stalls=False,
        cache=_make_cache(args),
    )
    first, last = args.window
    print(f"{args.benchmark} on {run.result.config_name}: {run.result.cycles} cycles")
    print(
        render_pipeline(
            run.recorder,
            run.trace,
            first_seq=first,
            last_seq=last,
            max_width=args.max_width,
        )
    )
    if args.jsonl:
        log.info(
            "streamed %d events to %s", run.recorder.recorded, args.jsonl
        )


def _cmd_stats(args: argparse.Namespace) -> None:
    from repro.errors import ConfigError
    from repro.obs import stall
    from repro.obs.export import stats_document, write_prometheus, write_stats_json
    from repro.obs.runner import observe_benchmark
    from repro.perf.cache import ArtifactCache

    machines = ["single", "dual"] if args.machine == "both" else [args.machine]
    if args.prom and len(machines) != 1:
        raise ConfigError(
            "--prom exports one run's metrics; pick one with --machine "
            "single|dual|dual-local"
        )
    # One shared cache: the two machines reuse the same native binary
    # and trace, so the second run skips compile + tracegen.
    cache = _make_cache(args) or ArtifactCache()
    runs = [
        observe_benchmark(
            args.benchmark,
            machine,
            trace_length=args.trace_length,
            sample_interval=args.interval,
            cache=cache,
        )
        for machine in machines
    ]
    for run in runs:
        print(f"== {args.benchmark} on {run.result.config_name} ==")
        print(run.stats.summary())
        print()
        print(stall.format_report(run.stats.stall_attribution, label=run.machine))
        print()
    if len(runs) >= 2:
        print(
            stall.diff_reports(
                runs[0].stats.stall_attribution,
                runs[1].stats.stall_attribution,
                runs[0].machine,
                runs[1].machine,
            )
        )
    if args.json:
        write_stats_json(
            args.json, stats_document(args.benchmark, [r.run_payload() for r in runs])
        )
        log.info("wrote %s", args.json)
    if args.prom:
        write_prometheus(args.prom, runs[0].metrics.registry)
        log.info("wrote %s", args.prom)
    _report_cache(cache)


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the sweep (1 = serial, 0 = one per CPU "
        "core); results are bit-identical to the serial run",
    )


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """The fan-out knobs; only the Table 2 sweeps (``table2``,
    ``cycle-time``) read them, through :func:`_evaluation_options`."""
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="S",
        help="supervised executor's per-task deadline in seconds "
        "(default: derived from --trace-length)",
    )
    parser.add_argument(
        "--redispatch-budget",
        type=int,
        default=2,
        metavar="N",
        help="re-dispatches allowed per task after a lost worker before "
        "the supervised executor degrades the sweep to serial",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache",
        action="store_true",
        help="cache compile/trace artifacts on disk "
        "($REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache directory (implies --cache)",
    )


def _add_resilience_flags(
    parser: argparse.ArgumentParser, retries: bool = True
) -> None:
    if retries:
        parser.add_argument(
            "--retries",
            type=int,
            default=1,
            metavar="N",
            help="attempts per evaluation run before a row degrades "
            "(1 = no retries); backoff is seeded and deterministic",
        )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="run directory with the append-only journal: completed rows "
        "are reused (bit-identically) and new rows journaled; pass the "
        "same DIR again after an interrupt to resume",
    )
    parser.add_argument(
        "--shard",
        default=None,
        metavar="NAME",
        help="journal into journal-NAME.jsonl inside the --resume "
        "directory (one shard per run or host); fold shards together "
        "later with 'repro journal merge'",
    )


def _add_span_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spans",
        action="store_true",
        help="emit orchestration spans (sweep/task/compile/tracegen/"
        "simulate + executor dispatch) as spans.jsonl next to the "
        "journal; deterministic spans are bit-identical across serial, "
        "--jobs, --resume, and sharded runs",
    )
    parser.add_argument(
        "--spans-dir",
        default=None,
        metavar="DIR",
        help="span sink directory (implies --spans; default: the "
        "--resume directory, else the current directory)",
    )


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="enable the simulator's per-cycle invariant checker "
        "(observational; cycle counts are unchanged)",
    )
    parser.add_argument(
        "--cycle-budget",
        type=int,
        default=0,
        metavar="N",
        help="watchdog cycle budget per simulation (0 = derived default)",
    )


def _add_logging_flags(parser: argparse.ArgumentParser, suppress: bool = False) -> None:
    """``-v``/``--quiet`` on the root parser and (suppressed-default)
    every subparser, so the flags work on either side of the command."""
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS if suppress else 0,
        help="debug-level diagnostics on stderr (logger-name prefixed)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="silence diagnostics below errors (results still print)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.ablations import SWEEPS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multicluster Architecture reproduction (MICRO-30 1997)",
    )
    _add_logging_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--trace-length", type=int, default=120_000)
    t2.add_argument("--benchmarks", nargs="*", default=None)
    _add_robustness_flags(t2)
    _add_jobs_flag(t2)
    _add_executor_flags(t2)
    _add_cache_flags(t2)
    _add_resilience_flags(t2)
    _add_span_flags(t2)
    t2.set_defaults(func=_cmd_table2)

    sc = sub.add_parser("scenarios", help="Figures 2-5 execution timelines")
    sc.set_defaults(func=_cmd_scenarios)

    f6 = sub.add_parser("figure6", help="the Figure 6 worked example")
    f6.add_argument(
        "--sweep",
        action="store_true",
        help="run the walk-through across imbalance thresholds",
    )
    f6.set_defaults(func=_cmd_figure6)

    ct = sub.add_parser("cycle-time", help="the Section 4.2/5 analysis")
    ct.add_argument("--trace-length", type=int, default=40_000)
    ct.add_argument("--benchmarks", nargs="*", default=None)
    _add_robustness_flags(ct)
    _add_jobs_flag(ct)
    _add_executor_flags(ct)
    _add_cache_flags(ct)
    ct.set_defaults(func=_cmd_cycle_time)

    ab = sub.add_parser("ablations", help="design-choice sweeps")
    ab.add_argument("--benchmark", default="compress")
    ab.add_argument("--trace-length", type=int, default=20_000)
    ab.add_argument(
        "--sweeps",
        nargs="*",
        choices=list(SWEEPS),
        default=None,
    )
    _add_jobs_flag(ab)
    _add_resilience_flags(ab)
    ab.set_defaults(func=_cmd_ablations)

    ex = sub.add_parser(
        "explore",
        help="design-space exploration gym: search N-cluster machines "
        "for the cycle-count vs cycle-time Pareto frontier",
    )
    ex.add_argument(
        "--driver",
        choices=["random", "grid", "evolutionary", "halving"],
        default="random",
        help="search strategy (all seeded and byte-reproducible)",
    )
    ex.add_argument("--seed", type=int, default=42, metavar="N")
    ex.add_argument(
        "--budget",
        type=int,
        default=16,
        metavar="N",
        help="random driver: total samples; halving: initial population",
    )
    ex.add_argument(
        "--population",
        type=int,
        default=8,
        metavar="N",
        help="evolutionary driver: points per generation",
    )
    ex.add_argument("--generations", type=int, default=4, metavar="N")
    ex.add_argument(
        "--elite",
        type=int,
        default=2,
        metavar="N",
        help="evolutionary driver: parents copied unchanged per generation",
    )
    ex.add_argument(
        "--tournament",
        type=int,
        default=3,
        metavar="N",
        help="evolutionary driver: tournament size for parent selection",
    )
    ex.add_argument(
        "--mutation-rate",
        type=float,
        default=0.5,
        metavar="P",
        help="evolutionary driver: offspring mutation probability",
    )
    ex.add_argument(
        "--eta",
        type=int,
        default=3,
        metavar="N",
        help="halving driver: promotion factor (top 1/eta survive a rung)",
    )
    ex.add_argument(
        "--max-clusters",
        type=int,
        default=4,
        metavar="N",
        help="upper bound on clusters per sampled machine",
    )
    ex.add_argument("--benchmarks", nargs="*", default=None)
    ex.add_argument(
        "--trace-length",
        type=int,
        default=12_000,
        metavar="N",
        help="instructions simulated per workload per trial (searches "
        "rank points; they do not publish tables)",
    )
    ex.add_argument("--trace-seed", type=int, default=7, metavar="N")
    ex.add_argument(
        "--tech",
        choices=["0.8um", "0.35um", "0.18um"],
        default="0.35um",
        help="process generation for the Palacharla cycle-time model",
    )
    ex.add_argument(
        "--part",
        choices=["dual_none", "dual_local"],
        default="dual_none",
        help="'dual_none' simulates the shared native binary on every "
        "point; 'dual_local' reschedules per point with the N-cluster "
        "local scheduler",
    )
    ex.add_argument(
        "--trajectory",
        default=None,
        metavar="FILE",
        help="write the per-trial search trajectory as JSONL (no "
        "timestamps: reruns and resumed runs are byte-identical)",
    )
    ex.add_argument(
        "--frontier",
        default=None,
        metavar="FILE",
        help="write the Pareto frontier as canonical JSON",
    )
    _add_robustness_flags(ex)
    _add_jobs_flag(ex)
    _add_cache_flags(ex)
    _add_resilience_flags(ex, retries=False)
    _add_span_flags(ex)
    ex.set_defaults(func=_cmd_explore)

    rp = sub.add_parser("report", help="regenerate everything into REPORT.md")
    rp.add_argument("--trace-length", type=int, default=40_000)
    rp.add_argument("--output", default="REPORT.md")
    rp.set_defaults(func=_cmd_report)

    ra = sub.add_parser(
        "reassignment", help="dynamic register reassignment demo (Section 6)"
    )
    ra.add_argument("--phase-length", type=int, default=2000)
    ra.set_defaults(func=_cmd_reassignment)

    rep = sub.add_parser(
        "replay",
        help="re-run a failure bundle and check it reproduces "
        "(exit 0 = same typed error, 1 = different behaviour)",
    )
    rep.add_argument("bundle", help="path to a bundles/*.json replay bundle")
    rep.set_defaults(func=_cmd_replay)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection soak over the sweep orchestration "
        "(exit 0 = healthy, 5 = contract violations)",
    )
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--rounds", type=int, default=3)
    ch.add_argument("--benchmarks", nargs="*", default=None)
    ch.add_argument("--trace-length", type=int, default=1000)
    ch.add_argument("--jobs", type=int, default=1, metavar="N")
    ch.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: 2 rounds, one benchmark, short traces",
    )
    ch.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="keep journals, bundles, and health.json here for post-mortems",
    )
    ch.add_argument(
        "--worker-faults",
        action="store_true",
        help="inject executor-level faults instead (worker_kill, "
        "worker_stall, worker_partition) against the supervised "
        "executor, asserting bit-identity to a serial reference",
    )
    ch.set_defaults(func=_cmd_chaos)

    jn = sub.add_parser(
        "journal", help="operate on run-directory journals (sharded sweeps)"
    )
    jn_sub = jn.add_subparsers(dest="journal_command", required=True)
    jm = jn_sub.add_parser(
        "merge",
        help="fold shard journals into one resume-equivalent run directory",
    )
    jm.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD",
        help="journal files or run directories to merge (a directory "
        "contributes journal.jsonl plus every journal-*.jsonl)",
    )
    jm.add_argument(
        "--output",
        required=True,
        metavar="DIR",
        help="output run directory (must not already hold a journal); "
        "point --resume here afterwards",
    )
    jm.add_argument(
        "--dry-run",
        action="store_true",
        help="report what the merge would do (rows, conflicts, missing "
        "artifacts) without writing anything",
    )
    jm.set_defaults(func=_cmd_journal_merge)

    sp = sub.add_parser(
        "spans",
        help="analyze and export orchestration spans from a run directory",
    )
    sp_sub = sp.add_subparsers(dest="spans_command", required=True)
    ss = sp_sub.add_parser(
        "summarize",
        help="per-kind totals and the virtual-timeline critical path",
    )
    ss.add_argument(
        "run_dir",
        metavar="RUN_DIR",
        help="run directory holding spans.jsonl / spans-*.jsonl",
    )
    ss.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as JSON instead of the human table",
    )
    ss.set_defaults(func=_cmd_spans_summarize)
    se = sp_sub.add_parser(
        "export",
        help="export spans as Chrome trace-event JSON (load in Perfetto "
        "or chrome://tracing)",
    )
    se.add_argument("run_dir", metavar="RUN_DIR")
    se.add_argument(
        "--format",
        choices=["chrome"],
        default="chrome",
        help="export format (trace-event JSON)",
    )
    se.add_argument(
        "--output",
        required=True,
        metavar="FILE",
        help="output file (open with https://ui.perfetto.dev)",
    )
    se.set_defaults(func=_cmd_spans_export)

    tp = sub.add_parser(
        "top",
        help="live terminal view of a sweep's run directory: per-shard "
        "progress, cache health, degradation events",
    )
    tp.add_argument("run_dir", metavar="RUN_DIR")
    tp.add_argument(
        "--once",
        action="store_true",
        help="render one snapshot and exit (scripts/CI)",
    )
    tp.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="S",
        help="seconds between refreshes",
    )
    tp.set_defaults(func=_cmd_top)

    tr = sub.add_parser(
        "trace",
        help="pipeline chart of one benchmark window (flight recorder)",
    )
    tr.add_argument("benchmark")
    tr.add_argument(
        "--machine",
        choices=["single", "dual", "dual-local"],
        default="dual",
        help="which Section 4 machine/binary to observe",
    )
    tr.add_argument("--trace-length", type=int, default=2000)
    tr.add_argument(
        "--window",
        type=int,
        nargs=2,
        default=(0, 24),
        metavar=("FIRST", "LAST"),
        help="dynamic-instruction sequence window to chart",
    )
    tr.add_argument("--max-width", type=int, default=64, metavar="COLS")
    tr.add_argument(
        "--jsonl",
        default=None,
        metavar="FILE",
        help="additionally stream every pipeline event to FILE (JSONL)",
    )
    tr.add_argument("--cache-dir", default=None, metavar="DIR")
    tr.set_defaults(func=_cmd_trace)

    st = sub.add_parser(
        "stats",
        help="observed run: stats summary, stall attribution, metrics export",
    )
    st.add_argument("benchmark")
    st.add_argument(
        "--machine",
        choices=["single", "dual", "dual-local", "both"],
        default="both",
        help="machine to observe ('both' = single + dual, with a diff)",
    )
    st.add_argument("--trace-length", type=int, default=20_000)
    st.add_argument(
        "--interval",
        type=int,
        default=100,
        metavar="N",
        help="metrics sampling interval in cycles",
    )
    st.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the schema-validated repro-stats JSON document to FILE",
    )
    st.add_argument(
        "--prom",
        default=None,
        metavar="FILE",
        help="write Prometheus text-format metrics to FILE "
        "(single machine only)",
    )
    st.add_argument("--cache-dir", default=None, metavar="DIR")
    st.set_defaults(func=_cmd_stats)

    # -v/--quiet on every (nested) subcommand so the flags work on
    # either side of the command words.
    for command_parser in set(sub.choices.values()) | {jm, ss, se}:
        _add_logging_flags(command_parser, suppress=True)
    return parser


def _cmd_reassignment(args: argparse.Namespace) -> None:
    from repro.experiments.reassignment import (
        format_reassignment_result,
        run_reassignment_demo,
    )

    print(format_reassignment_result(run_reassignment_demo(args.phase_length)))


def _cmd_replay(args: argparse.Namespace) -> None:
    from repro.robustness.replay import replay_file

    result = replay_file(args.bundle)
    print(result.format())
    if not result.reproduced:
        raise SystemExit(1)


def _cmd_chaos(args: argparse.Namespace) -> None:
    from repro.robustness.chaos import ChaosConfig, run_chaos

    if args.quick:
        config = ChaosConfig(
            seed=args.seed,
            rounds=min(args.rounds, 2),
            benchmarks=("compress",),
            trace_length=800,
            jobs=args.jobs,
            worker_faults=args.worker_faults,
        )
    else:
        config = ChaosConfig(
            seed=args.seed,
            rounds=args.rounds,
            benchmarks=tuple(args.benchmarks or ("compress", "ora")),
            trace_length=args.trace_length,
            jobs=args.jobs,
            worker_faults=args.worker_faults,
        )
    report = run_chaos(config, run_dir=args.run_dir)
    print(report.format())
    if args.run_dir:
        log.info("health report: %s/health.json", args.run_dir)
    raise SystemExit(report.exit_code)


def _cmd_spans_summarize(args: argparse.Namespace) -> None:
    import json

    from repro.errors import ConfigError
    from repro.obs.spans import (
        critical_path,
        format_span_summary,
        load_run_spans,
        split_spans,
        summarize_spans,
    )

    spans = load_run_spans(args.run_dir)
    if not spans:
        raise ConfigError(
            f"no span files in {args.run_dir!r}; run a sweep with --spans",
            run_dir=str(args.run_dir),
        )
    if args.json:
        det, wall = split_spans(spans)
        print(
            json.dumps(
                {
                    "deterministic": len(det),
                    "wall": len(wall),
                    "kinds": summarize_spans(det),
                    "critical_path": critical_path(det),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_span_summary(spans))


def _cmd_spans_export(args: argparse.Namespace) -> None:
    import json

    from repro.errors import ConfigError
    from repro.obs.spans import chrome_trace, load_run_spans, validate_chrome_trace

    spans = load_run_spans(args.run_dir)
    if not spans:
        raise ConfigError(
            f"no span files in {args.run_dir!r}; run a sweep with --spans",
            run_dir=str(args.run_dir),
        )
    document = chrome_trace(spans)
    validate_chrome_trace(document)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {args.output} ({len(document['traceEvents'])} events from "
        f"{len(spans)} spans; open with https://ui.perfetto.dev)"
    )


def _cmd_top(args: argparse.Namespace) -> None:
    from repro.obs.top import run_top

    run_top(args.run_dir, once=args.once, interval_s=args.interval)


def _cmd_journal_merge(args: argparse.Namespace) -> None:
    from repro.robustness.journal import merge_journals

    report = merge_journals(args.shards, args.output, dry_run=args.dry_run)
    print(report.format())
    if args.dry_run:
        print("dry run: nothing written")


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.experiments.report import write_report

    report = write_report(args.output, trace_length=args.trace_length)
    print(f"wrote {args.output} ({len(report.markdown)} bytes)")
    print(f"figure 6 matches paper: {report.figure6.matches_paper}")


def main(argv: Optional[Sequence[str]] = None) -> None:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    setup_logging(
        getattr(args, "verbose", 0) or 0, quiet=getattr(args, "quiet", False)
    )
    try:
        args.func(args)
    except ReproError as error:
        # One-line diagnostic instead of a traceback; the exit code
        # distinguishes configuration (2) from simulation (3) failures.
        print(f"error: {error.brief()}", file=sys.stderr)
        raise SystemExit(error.exit_code) from None


if __name__ == "__main__":  # pragma: no cover
    main()
