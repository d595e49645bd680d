"""The sweep driver behind every sweep, serial or ``--jobs N``.

The Section 4 methodology is independent across benchmarks *and* across
the three runs per benchmark, so a Table 2 sweep decomposes into
``len(benchmarks) * 3`` work units; the ablation and design-space
sweeps are lists of independent points.  Each unit is re-derived inside the worker from
small inputs — every stage is seeded and deterministic, so results are
bit-identical to the serial path, and nothing but small inputs and
final results crosses the process boundary.

:func:`fan_out` is the one driver: it resolves ``jobs``, runs serially
in-process (no worker is started) for ``jobs == 1`` or a single task,
and otherwise submits every task to a
:class:`~repro.perf.executor.SupervisedPoolExecutor` built by
:func:`~repro.perf.executor.make_sweep_executor` and hands each result
to the caller the moment it arrives.  :func:`run_sweep` layers the
generic points on top (journal reuse and per-point journaling);
:func:`~repro.experiments.table2.run_table2` hands it its per-part
tasks for every ``jobs`` value and assembles rows itself, because a
row spans three tasks.

Design notes:

* Workers fork from the parent (where the platform supports it), so
  monkeypatched registries and installed fault injection are inherited —
  the robustness matrix exercises the workers exactly like the serial
  path.  A Table 2 task raising :class:`~repro.errors.ReproError`
  degrades into a :class:`~repro.experiments.harness.BenchmarkFailure`
  inside the task, wherever it runs; a generic point that raises sends
  the error home as a value and the parent re-raises it, same type and
  message, without counting a lost worker.
* Each worker process holds one process-local
  :class:`~repro.perf.cache.ArtifactCache` (optionally disk-backed, in
  which case all workers share the directory); Table 2 ships per-task
  counter deltas back and merges them into the parent's cache stats so
  hit/miss accounting stays correct under ``--jobs N``.
* Retries run *inside* the task (``options.retry``), so a transient
  fault costs one worker a re-run, not the whole sweep a round-trip.
* SIGINT/SIGTERM to the parent stops the sweep: every result that came
  home before the signal has been delivered to the caller (and
  journaled, when a journal is attached), in-flight workers are
  SIGKILLed rather than drained — no orphans — and the sweep raises
  :class:`~repro.errors.SweepInterrupted` (exit code 130) so a follow-up
  ``--resume`` recomputes only the missing units.  Workers ignore SIGINT
  themselves: the parent owns cancellation, so a Ctrl-C delivered to the
  process group cannot half-kill the pool.
* The executor is supervised: per-task deadlines (derived from each
  sweep's trace length, simulations per task and self-check by
  :func:`~repro.perf.executor.default_task_timeout`), dead/wedged-worker
  detection, bounded re-dispatch, and a circuit breaker that finishes
  the sweep serially instead of hanging.  Several hosts split a sweep
  with ``--shard`` and fold the shards with ``repro journal merge``.
"""

from __future__ import annotations

import logging
import os
import signal
import traceback
from contextlib import contextmanager
from typing import Any, Callable, Optional, Sequence

from repro.errors import ConfigError, SweepInterrupted
from repro.perf.cache import ArtifactCache
from repro.perf.executor import SweepTask, _worker_cache, make_sweep_executor

log = logging.getLogger("repro.sweep")

#: Hard ceiling on explicit ``--jobs`` relative to the machine: beyond
#: this the request is a typo (e.g. ``--jobs 1200`` for ``--jobs 12``),
#: not a tuning choice — oversubscription past ~4x cores only thrashes.
MAX_JOBS_FACTOR = 4
MAX_JOBS_FLOOR = 64


def resolve_jobs(jobs: int) -> int:
    """Validate and resolve a ``--jobs`` request.

    ``0`` means one worker per CPU core (the documented auto mode).
    Negative values and absurd oversubscription (more than
    ``max(4 * cores, 64)``) are configuration errors, not values to
    silently clamp — a typo'd sweep should fail loudly before forking.
    """
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigError(
            f"--jobs must be >= 0 (0 = one worker per core), got {jobs}",
            jobs=jobs,
        )
    ceiling = max(MAX_JOBS_FACTOR * (os.cpu_count() or 1), MAX_JOBS_FLOOR)
    if jobs > ceiling:
        raise ConfigError(
            f"--jobs {jobs} exceeds the sanity ceiling of {ceiling} "
            f"(4x this machine's cores); this is almost certainly a typo",
            jobs=jobs,
            ceiling=ceiling,
        )
    return jobs


@contextmanager
def sweep_signals():
    """Deliver SIGTERM (and SIGINT) as ``KeyboardInterrupt`` to the sweep.

    SIGINT already raises ``KeyboardInterrupt``; SIGTERM — what service
    managers and CI runners send first — normally kills the process
    outright, orphaning workers and tearing the journal's final line.
    Inside this context both funnel into the sweep's orderly-shutdown
    path.  No-op outside the main thread (signal handlers are
    main-thread-only; nested sweeps keep the outer handler).
    """
    previous = {}
    def _interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(sig, _interrupt)
        except ValueError:  # not the main thread
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def fan_out(
    task_fn: Callable[[tuple], Any],
    tasks: Sequence[SweepTask],
    jobs: int,
    deliver: Callable[[SweepTask, Any], None],
    *,
    run_serial: Callable[[SweepTask], Any],
    journal=None,
    cache_dir=None,
    spans=None,
    **executor_options: Any,
) -> None:
    """Run ``tasks`` serially or across workers; the one sweep driver.

    ``jobs`` goes through :func:`resolve_jobs`.  One job (or a single
    task) runs ``run_serial(task)`` for each task in order, in-process.
    Otherwise ``task_fn`` (module-level; it receives
    ``task.payload()``) runs in the workers of the supervised executor
    built by :func:`~repro.perf.executor.make_sweep_executor` from
    ``cache_dir``, ``spans`` and ``executor_options``.  Either way
    ``deliver(task, value)`` fires in the parent as each result
    arrives, so a caller that journals there loses at most in-flight
    tasks to a kill.  An interrupt raises
    :class:`~repro.errors.SweepInterrupted` after killing the workers;
    any other error from a delivery also kills them before it
    propagates.  Executor degradations are logged and, with a
    ``journal``, recorded as ``executor_degradation`` events; a spanned
    sweep also writes the executor's final metrics next to its span
    files.
    """
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        for task in tasks:
            deliver(task, run_serial(task))
        return
    sweep = make_sweep_executor(
        task_fn,
        min(jobs, len(tasks)),
        cache_dir,
        spans=spans,
        **executor_options,
    )
    with sweep, sweep_signals():
        try:
            for task in tasks:
                sweep.submit(task)
            while sweep.outstanding:
                for result in sweep.poll():
                    deliver(result.task, result.value)
        except KeyboardInterrupt as error:
            raise SweepInterrupted(
                "sweep interrupted; completed rows are journaled and the run "
                "is resumable with --resume",
                cause=type(error).__name__,
                cancelled_units=sweep.cancel(),
            ) from None
        except BaseException:
            sweep.cancel()
            raise
    for degradation in sweep.degradations:
        log.warning("%s", degradation.format())
        if journal is not None:
            journal.record_event("executor_degradation", degradation.as_dict())
    if spans is not None:
        # Final executor metrics land next to the span files, in the
        # Prometheus text format 'repro stats' also speaks.
        from repro.obs.export import write_prometheus

        write_prometheus(spans.run_dir / "executor-metrics.prom", sweep.metrics)


# ------------------------------------------------------------ generic points
class _Raised:
    """An exception a worker sends home as a value (see :func:`_point_task`)."""

    def __init__(self, error: Exception) -> None:
        self.error = error
        # Tracebacks do not pickle; the parent chains this text instead.
        self.traceback = traceback.format_exc()


def _point_task(payload: tuple) -> Any:
    """Worker side of one generic sweep point: ``fn(item, worker cache)``.

    The supervised executor counts a worker that dies on an exception as
    a lost worker and re-dispatches its task, so the error travels home
    as a value instead and the parent re-raises it.
    """
    _, _, (fn, item) = payload
    try:
        return fn(item, _worker_cache())
    except Exception as error:
        return _Raised(error)


def run_sweep(
    fn: Callable[[Any, Optional[ArtifactCache]], Any],
    items: Sequence[Any],
    jobs: int,
    *,
    keys: Sequence[tuple[str, str]],
    journal=None,
    json_journal: bool = False,
    cache: Optional[ArtifactCache] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
    trace_length: int = 0,
    self_check: bool = False,
) -> list[Any]:
    """``[fn(item, cache) for item in items]``, fanned out by :func:`fan_out`.

    ``fn`` must be module-level (workers receive it by reference); it
    gets ``cache`` in the serial path and the worker's process-local
    cache in a worker.  An error ``fn`` raises reaches the caller with
    its own type and message.

    ``keys`` holds one journal ``(key, fingerprint)`` per item (it is
    read only with a ``journal``, so may be empty without one).  With a
    ``journal``, items already journaled under a matching fingerprint are
    reused verbatim and every fresh value is journaled the moment it
    arrives — as a pickled artifact, or as the JSON ``payload`` when
    ``json_journal`` is set.  ``on_result(index, value)`` fires after
    each fresh value is journaled.

    ``trace_length`` is the dynamic instructions one item simulates in
    total (trace length times simulations per item); with ``self_check``
    it sizes the per-task deadline through
    :func:`~repro.perf.executor.default_task_timeout`.
    """
    values: list[Any] = [None] * len(items)
    todo = list(range(len(items)))
    if journal is not None:
        todo = []
        for index, (key, fingerprint) in enumerate(keys):
            entry = journal.completed(key, fingerprint)
            if json_journal:
                reused = entry.payload if entry is not None else None
            else:
                reused = journal.load_artifact(entry)
            if reused is None:
                todo.append(index)
            else:
                values[index] = reused

    def deliver(task: SweepTask, value: Any) -> None:
        if isinstance(value, _Raised):
            raise value.error from RuntimeError(
                f"raised in a sweep worker:\n{value.traceback}"
            )
        index = int(task.part)
        values[index] = value
        if journal is not None:
            key, fingerprint = keys[index]
            if json_journal:
                journal.record_completed(key, fingerprint, payload=value)
            else:
                journal.record_completed(key, fingerprint, artifact_value=value)
        if on_result is not None:
            on_result(index, value)

    fan_out(
        _point_task,
        [SweepTask("point", str(index), (fn, items[index])) for index in todo],
        jobs,
        deliver,
        run_serial=lambda task: fn(items[int(task.part)], cache),
        journal=journal,
        cache_dir=cache.cache_dir if cache is not None else None,
        trace_length=trace_length,
        self_check=self_check,
    )
    return values
