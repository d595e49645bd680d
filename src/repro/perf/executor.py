"""Sweep executors: submit/poll/cancel over ``(benchmark, part, options)`` tasks.

A plain process pool has one blind spot: a worker that *dies*
(SIGKILL, OOM killer, a lost host in a distributed deployment) or
*wedges* (a runaway simulation, a network partition swallowing the
result) stalls the whole sweep forever — ``concurrent.futures`` only
surfaces a broken pool, and only sometimes.  This module makes worker
failure a first-class, recoverable event by splitting the sweep driver
(:func:`repro.perf.parallel.fan_out`) from the fan-out machinery behind
a small interface:

* :class:`SweepExecutor` — the contract: :meth:`~SweepExecutor.submit`
  tasks, :meth:`~SweepExecutor.poll` completed results,
  :meth:`~SweepExecutor.cancel` on interrupt.  Sweep drivers see task
  results in completion order and stay bit-identical to serial because
  every task is a pure function of its ``(benchmark, part, options)``
  payload — *which* worker computes it, or how many times, cannot
  change the value.  It is also the one task ledger (tickets,
  re-dispatch budget and backoff, the serial step) behind both
  executors; subclasses differ only in transport.
* :class:`SupervisedPoolExecutor` — one supervised process per slot,
  each fed through its own inbox queue so the supervisor always knows
  which task is on which worker.  Per-task deadlines (sized from the
  trace length by :func:`default_task_timeout`) are tracked by
  :class:`TaskLiveness`;
  a dead pid or an expired deadline costs exactly one task, which is
  re-dispatched under a bounded budget using the deterministic seeded
  backoff of :mod:`repro.robustness.retry`.  When workers keep dying —
  a task exhausts its re-dispatch budget or the pool exceeds its
  global death budget — a circuit breaker trips: the pool is torn
  down, an :class:`ExecutorDegradation` event is recorded (the
  ``BenchmarkFailure`` of the executor layer — an event, not a crash),
  and the remaining tasks finish serially in-process, so the sweep
  *always* completes with the same rows.

Failure model (what the supervisor treats as a lost task):

========================  =============================================
observation               meaning
========================  =============================================
worker pid not alive      the process died (chaos ``worker_kill``,
                          OOM, a lost host) — re-dispatch now
deadline expired          the worker is wedged (``worker_stall``) or
                          its result was dropped in flight
                          (``worker_partition``) — SIGKILL the worker,
                          re-dispatch
========================  =============================================

Known limitation: a worker killed *mid-put* on the shared result queue
can poison the queue for its siblings.  The deadline machinery still
recovers (their tasks expire and re-dispatch), and the circuit breaker
bounds the damage; chaos injections fire at task pickup, where the
queue is quiescent.
"""

from __future__ import annotations

import collections
import itertools
import logging
import multiprocessing
import os
import queue
import signal
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry, executor_metrics
from repro.obs.spans import WallSpans
from repro.perf.cache import ArtifactCache
from repro.robustness.retry import RetryPolicy

log = logging.getLogger("repro.executor")

#: Executor implementations selectable via ``EvaluationOptions.executor``.
EXECUTOR_KINDS = ("supervised", "distributed")

#: Seconds one pass of an executor's event loop waits for a result.
POLL_TICK_S = 0.05

#: Floor for derived per-task deadlines (seconds).
MIN_TASK_TIMEOUT = 30.0

#: Baseline deadline budget per dynamic instruction (seconds), sized for
#: the reference engine without self-checking.
BASE_SECONDS_PER_INSTRUCTION = 0.0025

#: Per-cycle invariant checking multiplies simulation cost severalfold;
#: the deadline must scale with it or ``--self-check`` sweeps on long
#: traces expire healthy workers.
SELF_CHECK_TIMEOUT_FACTOR = 4.0

#: The batched engine is measured 2.7-3.2x faster than reference; halve
#: the per-instruction budget (still comfortably above worst observed).
BATCHED_ENGINE_TIMEOUT_FACTOR = 0.5

#: The forked worker's process-local artifact cache.
_WORKER_CACHE: Optional[ArtifactCache] = None


def default_task_timeout(
    trace_length: int,
    *,
    self_check: bool = False,
    engine: Optional[str] = None,
) -> float:
    """A per-task deadline sized from the trace length and options.

    One task is one compile + trace + simulate of ``trace_length``
    dynamic instructions; the budget is a generous multiple of the
    worst observed per-instruction cost so only a genuinely wedged or
    partitioned worker ever hits it.  The per-instruction rate scales
    with what actually drives simulation cost: ``self_check`` (per-cycle
    invariant checking) multiplies the budget by
    :data:`SELF_CHECK_TIMEOUT_FACTOR`; the batched engine shrinks it by
    :data:`BATCHED_ENGINE_TIMEOUT_FACTOR` (``engine=None`` is treated as
    the reference engine).
    """
    per_instruction = BASE_SECONDS_PER_INSTRUCTION
    if engine == "batched":
        per_instruction *= BATCHED_ENGINE_TIMEOUT_FACTOR
    if self_check:
        per_instruction *= SELF_CHECK_TIMEOUT_FACTOR
    return max(MIN_TASK_TIMEOUT, 10.0 + trace_length * per_instruction)


def _init_worker(cache_dir) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = ArtifactCache(cache_dir)
    # The parent coordinates interruption (deliver finished results, kill
    # the workers, raise SweepInterrupted); a group-delivered Ctrl-C must
    # not let workers die mid-task underneath it.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _worker_cache() -> ArtifactCache:
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ArtifactCache()
    return _WORKER_CACHE


def _ensure_worker_cache(cache_dir) -> None:
    """Give the *parent* process a task cache for degraded serial runs."""
    global _WORKER_CACHE
    if _WORKER_CACHE is None:
        _WORKER_CACHE = ArtifactCache(cache_dir)


def _mp_context():
    """Fork where possible: monkeypatched registries and installed fault
    injection are inherited, so workers behave exactly like the parent."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


# ------------------------------------------------------------------- tasks
@dataclass(frozen=True)
class SweepTask:
    """One sweep work unit: a ``(benchmark, part, options)`` triple.

    Table 2 tasks name a real benchmark and part; generic sweep points
    (:func:`repro.perf.parallel.run_sweep`) are ``("point", index)``.  ``token`` is the stable identity used for
    re-dispatch bookkeeping and the deterministic backoff schedule, so
    it must be unique within a batch; ``payload()`` is exactly the item
    the worker-side task function consumes.  Tasks that share an
    ``affinity`` key reuse each other's worker-cache artifacts (Table 2's
    ``single`` and ``dual_none`` parts run one binary), so the ledger
    keeps them for the worker that took the key first (see
    :meth:`SweepExecutor._next_ready`).
    """

    benchmark: str
    part: str
    options: Any = None
    affinity: Optional[str] = None

    @property
    def token(self) -> str:
        return f"{self.benchmark}:{self.part}"

    def payload(self) -> tuple:
        return (self.benchmark, self.part, self.options)


@dataclass
class TaskResult:
    """A completed task plus how it got home.

    ``dispatches`` counts how many workers the task was handed to
    (1 = the happy path; more = lost workers were survived).
    """

    task: SweepTask
    value: Any
    dispatches: int = 1


@dataclass
class ExecutorDegradation:
    """``BenchmarkFailure``-style record of a tripped circuit breaker.

    Emitted (never raised) when an executor gives up on its workers and
    hands the open tasks to its next fallback — the supervised pool to
    in-process serial, the distributed coordinator to a supervised
    pool: the sweep still completes with bit-identical rows, and this
    event — journaled as a durable ``status: "event"`` record when a
    journal is attached — is the audit trail that the faster path was
    abandoned and why.  ``remaining_tasks`` counts the tasks handed on.
    """

    reason: str
    detail: str
    worker_deaths: int = 0
    redispatches: int = 0
    remaining_tasks: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        return (
            f"executor degraded ({self.reason}): {self.detail} "
            f"[deaths={self.worker_deaths} redispatches={self.redispatches} "
            f"remaining={self.remaining_tasks}]"
        )


# --------------------------------------------------------------- deadlines
class TaskLiveness:
    """Per-key deadline tracker for an executor's in-flight work.

    Each dispatched task (and each of the distributed coordinator's
    host leases) is registered with :meth:`start` under its own
    deadline; :meth:`overdue` names the keys whose deadline has passed
    — a wedged worker, a result lost in flight, a silent host — so the
    executor can kill and re-dispatch.  Clock injection keeps deadline
    tests deterministic.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: key -> (started_at, deadline) for in-flight work.
        self._inflight: dict = {}

    def start(self, key, timeout_s: float) -> None:
        """Track ``key`` with a deadline ``timeout_s`` from now."""
        now = self.clock()
        self._inflight[key] = (now, now + timeout_s)

    def renew(self, key, timeout_s: float) -> None:
        """Extend ``key``'s deadline to ``timeout_s`` from now, keeping
        its original start time (age survives renewals).  Renewing a key
        that is not in flight starts tracking it — the distributed
        coordinator leans on this for heartbeat-renewed host leases."""
        now = self.clock()
        entry = self._inflight.get(key)
        started = entry[0] if entry is not None else now
        self._inflight[key] = (started, now + timeout_s)

    def finish(self, key) -> Optional[float]:
        """Stop tracking ``key``; returns its elapsed seconds (``None``
        if it was not in flight — finishing twice is not an error)."""
        entry = self._inflight.pop(key, None)
        if entry is None:
            return None
        started, _ = entry
        return max(0.0, self.clock() - started)

    def overdue(self, now: Optional[float] = None) -> list:
        """Keys whose deadline has passed, oldest first."""
        if now is None:
            now = self.clock()
        late = [
            (deadline, key)
            for key, (_, deadline) in self._inflight.items()
            if now >= deadline
        ]
        return [key for _, key in sorted(late, key=lambda item: item[0])]


# ------------------------------------------------------- interface + ledger
class SweepExecutor:
    """The sweep drivers' view of a fan-out engine, and its task ledger.

    Lifecycle: ``submit()`` any number of tasks, then ``poll()`` until
    :attr:`outstanding` reaches zero (dispatch starts at the first
    poll, so affinity dispatch sees the whole batch); ``cancel()`` on
    interrupt tears everything down and reports how many tasks never
    completed.  Usable as a context manager (``close()`` on exit).  Each
    submitted task is delivered exactly once, in completion order.

    This class owns everything that does not depend on how a task
    reaches a worker: the open/pending/dispatch/ticket maps, duplicate
    dropping, budgeted re-dispatch under the seeded backoff, the
    in-process serial step and the degradation record.  A subclass is
    only the transport: :meth:`_dispatch_ready`, one :meth:`_step` of
    its event loop, :meth:`_degrade`, :meth:`cancel` and :meth:`close`.
    """

    #: Names the executor in errors, logs and degradation wall spans.
    kind: str
    #: Prefix of the executor's counters (``executor_*`` / ``dist_*``).
    metric_prefix: str
    #: Degradation reason when a task exhausts its re-dispatch budget.
    breaker_reason: str

    def __init__(
        self,
        task_fn: Callable[[tuple], Any],
        jobs: int,
        cache_dir,
        *,
        task_timeout: float,
        redispatch_budget: int,
        redispatch_policy: Optional[RetryPolicy],
        metrics: MetricsRegistry,
        spans,
    ) -> None:
        if task_timeout <= 0:
            raise ConfigError(
                f"{self.kind} executor needs task_timeout > 0 seconds",
                task_timeout=task_timeout,
            )
        if redispatch_budget < 0:
            raise ConfigError(
                "redispatch budget must be >= 0",
                redispatch_budget=redispatch_budget,
            )
        self._task_fn = task_fn
        self._jobs = max(1, jobs)
        self._cache_dir = cache_dir
        self.task_timeout = task_timeout
        self.redispatch_budget = redispatch_budget
        self._policy = redispatch_policy or RetryPolicy(
            max_attempts=redispatch_budget + 1,
            base_delay=0.05,
            max_delay=1.0,
            seed=0,
        )
        self.metrics = metrics
        self._spans = spans
        self._wall = WallSpans(spans)
        self._liveness = TaskLiveness()  # keyed by ticket
        self._open: dict[str, SweepTask] = {}  # token -> task (not completed)
        self._pending: collections.deque = collections.deque()  # (token, not_before)
        self._dispatches: dict[str, int] = {}  # token -> dispatch count
        self._tickets: dict[int, str] = {}  # ticket -> token
        self._holders: dict[str, Any] = {}  # affinity key -> worker
        self._ticket_seq = itertools.count(1)
        self._serial = False
        self.redispatches = 0
        #: Every degradation this executor (and, for the distributed
        #: coordinator, its fallback pool) recorded, in order.
        self.degradations: list[ExecutorDegradation] = []

    @property
    def degradation(self) -> Optional[ExecutorDegradation]:
        """The first degradation event; ``None`` on the happy path."""
        return self.degradations[0] if self.degradations else None

    # ---------------------------------------------------------- lifecycle
    def submit(self, task: SweepTask) -> None:
        token = task.token
        if token in self._open:
            raise ConfigError(
                f"task {token!r} is already submitted; sweep tasks must be "
                "unique per (benchmark, part)",
                token=token,
            )
        self._open[token] = task
        self._dispatches.setdefault(token, 0)
        self._pending.append((token, 0.0))

    @property
    def outstanding(self) -> int:
        """Submitted tasks that have not yet been returned by poll()."""
        return len(self._open)

    def poll(self, timeout: Optional[float] = None) -> list[TaskResult]:
        """Completed tasks since the last call (blocks for at least one
        unless ``timeout`` expires or nothing is outstanding)."""
        results: list[TaskResult] = []
        started = time.monotonic()
        while not results and self._open:
            if self._serial:
                results.extend(self._serial_step())
                continue
            results.extend(self._step(timeout))
            if timeout is not None and time.monotonic() - started >= timeout:
                break
        return results

    def cancel(self) -> int:
        """Tear down workers and drop pending work; returns the number
        of tasks that will never complete."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ transport
    def _step(self, timeout: Optional[float]) -> list[TaskResult]:
        """One bounded pass of the transport's event loop."""
        raise NotImplementedError

    def _dispatch_ready(self) -> None:
        """Hand ready tasks (see :meth:`_next_ready`) to idle workers."""
        raise NotImplementedError

    def _degrade(self, reason: str, detail: str) -> None:
        """Abandon the workers and hand every open task to the fallback."""
        raise NotImplementedError

    # --------------------------------------------------------------- ledger
    def _next_ready(self, worker, workers: int) -> Optional[tuple[int, SweepTask, int]]:
        """Pop the next open task whose backoff has elapsed for the idle
        ``worker``, one of ``workers`` live ones, and issue it a ticket:
        ``(ticket, task, dispatch)`` with ``dispatch`` the 0-based
        attempt index, or ``None`` when nothing is ready.

        The order is FIFO.  While at least two tasks per worker are
        queued, a task whose affinity key another worker holds is
        skipped: that worker has the key's binary compiled and traced,
        and the queue has other work for this one.  If nothing else is
        ready it is taken anyway, so no worker idles while work is
        ready.  On a shorter queue dispatch is plain FIFO: holding a
        task back for its key's holder would then put a whole part on
        the sweep's critical path to save one compile.  A worker takes
        the key of each keyed task it is handed whose key no one holds.
        """
        pending, holders = self._pending, self._holders
        while pending and pending[0][0] not in self._open:
            pending.popleft()  # completed by a late result while queued
        now = time.monotonic()
        hold = len(pending) >= 2 * workers
        pick = steal = None
        for index, (token, not_before) in enumerate(pending):
            if not_before > now or token not in self._open:
                continue
            if not hold or holders.get(self._open[token].affinity, worker) == worker:
                pick = index
                break
            if steal is None:
                steal = index
        pick = steal if pick is None else pick
        if pick is None:
            return None
        token, _ = pending[pick]
        del pending[pick]
        task = self._open[token]
        key = task.affinity
        if key is not None and holders.setdefault(key, worker) != worker:
            self.metrics.counter(f"{self.metric_prefix}_affinity_steals").inc()
        ticket = next(self._ticket_seq)
        dispatch = self._dispatches[token]
        self._tickets[ticket] = token
        self._dispatches[token] = dispatch + 1
        return ticket, task, dispatch

    def _release_affinity(self, worker) -> None:
        """Free the keys a lost ``worker`` held, so any worker may take
        their requeued or remaining tasks."""
        self._holders = {
            key: holder for key, holder in self._holders.items() if holder != worker
        }

    def _complete(self, ticket: int, value: Any) -> Optional[TaskResult]:
        """Close ``ticket``'s task with ``value``; ``None`` for a
        duplicate (the task already completed under another ticket)."""
        token = self._tickets.get(ticket)
        if token not in self._open:
            return None
        task = self._open.pop(token)
        self.metrics.counter(f"{self.metric_prefix}_tasks_completed").inc()
        return TaskResult(
            task=task, value=value, dispatches=self._dispatches.get(token, 1)
        )

    def _requeue(self, ticket: int, reason: str) -> None:
        """Re-dispatch a lost ticket's still-open task after its seeded
        backoff, or degrade once the task exhausted its budget."""
        token = self._tickets.get(ticket)
        if token not in self._open:
            return
        used = self._dispatches.get(token, 0)
        if used > self.redispatch_budget:
            self._degrade(
                self.breaker_reason,
                f"task {token} lost {used} dispatch(es) ({reason}); "
                f"re-dispatch budget {self.redispatch_budget} exhausted",
            )
            return
        self.redispatches += 1
        self.metrics.counter(f"{self.metric_prefix}_redispatches").inc()
        self._wall.instant("requeue", token, reason=reason)
        delay = 0.0
        schedule = self._policy.schedule(token)
        if schedule:
            delay = schedule[min(max(used - 1, 0), len(schedule) - 1)]
        self._pending.append((token, time.monotonic() + delay))

    def _record_degradation(self, reason: str, detail: str, losses: int) -> None:
        remaining = len(self._open)
        self.degradations.append(
            ExecutorDegradation(
                reason=reason,
                detail=detail,
                worker_deaths=losses,
                redispatches=self.redispatches,
                remaining_tasks=remaining,
            )
        )
        self.metrics.counter(f"{self.metric_prefix}_degradations").inc()
        self._wall.instant(
            "degradation", self.kind, detail=detail, remaining=remaining
        )
        log.warning("%s executor degrading (%s): %s", self.kind, reason, detail)

    def _go_serial(self) -> None:
        """Run every open task in-process from now on.  Fault injection
        lives in the workers, so the serial path always completes."""
        self._serial = True
        _ensure_worker_cache(self._cache_dir)

    def _serial_step(self) -> list[TaskResult]:
        # Submission order: _open is insertion-ordered.
        token, task = next(iter(self._open.items()))
        del self._open[token]
        self._dispatches[token] += 1
        value = self._task_fn(task.payload())
        self.metrics.counter(f"{self.metric_prefix}_tasks_completed").inc()
        return [
            TaskResult(task=task, value=value, dispatches=self._dispatches[token])
        ]


# ------------------------------------------------------- supervised worker
def _supervised_worker(
    worker_id: int, inbox, results, task_fn, cache_dir, fault_plan
) -> None:
    """One supervised worker: drain the inbox until the ``None`` pill.

    The chaos hooks live here, at task pickup, where a real worker loss
    would be observed: ``worker_kill`` SIGKILLs the process (a lost
    host), ``worker_stall`` wedges it (a runaway or hung run; the
    supervisor's deadline puts it down), ``worker_partition`` computes
    the result and drops it (the host finished but the result never
    made it home).
    """
    _init_worker(cache_dir)
    while True:
        item = inbox.get()
        if item is None:
            return
        ticket, benchmark, part, payload, dispatch = item
        kind = None
        if fault_plan is not None:
            kind = fault_plan.worker_fault(benchmark, part, dispatch)
        if kind == "worker_kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "worker_stall":
            while True:  # wedged until the supervisor SIGKILLs us
                time.sleep(60.0)
        value = task_fn(payload)
        if kind == "worker_partition":
            continue  # computed, then dropped on the floor
        results.put((ticket, worker_id, value))


class SupervisedPoolExecutor(SweepExecutor):
    """Process pool with supervision: deadlines, re-dispatch, breaker.

    One process per slot, each with a private inbox queue, so the
    supervisor knows exactly which task every worker holds.  See the
    module docstring for the failure model; the key invariant is that a
    task's value is independent of which worker computes it (tasks are
    pure functions of their payload), so loss-and-re-dispatch — and
    even the degraded serial path — keep sweeps bit-identical to
    serial.
    """

    kind = "supervised"
    metric_prefix = "executor"
    breaker_reason = "circuit-breaker"

    def __init__(
        self,
        task_fn: Callable[[tuple], Any],
        jobs: int,
        cache_dir=None,
        *,
        task_timeout: float = MIN_TASK_TIMEOUT,
        redispatch_budget: int = 2,
        redispatch_policy: Optional[RetryPolicy] = None,
        max_worker_deaths: Optional[int] = None,
        worker_fault_plan=None,
        spans=None,
    ) -> None:
        super().__init__(
            task_fn,
            jobs,
            cache_dir,
            task_timeout=task_timeout,
            redispatch_budget=redispatch_budget,
            redispatch_policy=redispatch_policy,
            metrics=executor_metrics(),
            spans=spans,
        )
        self.max_worker_deaths = (
            max_worker_deaths
            if max_worker_deaths is not None
            else 2 * self._jobs + 2
        )
        self._fault_plan = worker_fault_plan
        self._ctx = _mp_context()
        self._results = self._ctx.Queue()
        self._workers: dict[int, Any] = {}
        self._inboxes: dict[int, Any] = {}
        self._idle: list[int] = []
        self._busy: dict[int, int] = {}  # worker_id -> ticket
        self._worker_seq = itertools.count(1)
        self.worker_deaths = 0
        self._closed = False
        for _ in range(self._jobs):
            self._spawn_worker()

    # ------------------------------------------------------------ workers
    def _spawn_worker(self) -> None:
        worker_id = next(self._worker_seq)
        inbox = self._ctx.Queue()
        process = self._ctx.Process(
            target=_supervised_worker,
            args=(
                worker_id,
                inbox,
                self._results,
                self._task_fn,
                self._cache_dir,
                self._fault_plan,
            ),
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = process
        self._inboxes[worker_id] = inbox
        self._idle.append(worker_id)

    def _remove_worker(self, worker_id: int, reason: str, kill: bool = False) -> None:
        """A worker died (or must die): account, requeue its task, refill."""
        process = self._workers.pop(worker_id)
        inbox = self._inboxes.pop(worker_id)
        if kill and process.is_alive():
            process.kill()
        process.join(timeout=5.0)
        inbox.close()
        inbox.cancel_join_thread()
        if worker_id in self._idle:
            self._idle.remove(worker_id)
        self._release_affinity(worker_id)
        self.worker_deaths += 1
        self.metrics.counter("executor_worker_deaths").inc()
        log.warning("supervised pool lost worker %d: %s", worker_id, reason)
        ticket = self._busy.pop(worker_id, None)
        if ticket is not None:
            self._liveness.finish(ticket)
            self._wall.end(ticket, ok=False, reason=reason)
            self._requeue(ticket, reason)
        if self._serial:
            return  # the requeue exhausted the task's budget
        if self.worker_deaths > self.max_worker_deaths:
            self._degrade(
                self.breaker_reason,
                f"{self.worker_deaths} worker deaths exceed the pool's "
                f"budget of {self.max_worker_deaths}",
            )
        elif not self._closed:
            self._spawn_worker()

    def _shutdown_workers(self, kill: bool) -> None:
        for worker_id, process in list(self._workers.items()):
            if kill:
                if process.is_alive():
                    process.kill()
            else:
                try:
                    self._inboxes[worker_id].put(None)
                except (ValueError, OSError):  # pragma: no cover - closed queue
                    pass
        for worker_id, process in list(self._workers.items()):
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stubborn worker
                process.kill()
                process.join(timeout=5.0)
            inbox = self._inboxes[worker_id]
            inbox.close()
            inbox.cancel_join_thread()
        self._workers.clear()
        self._inboxes.clear()
        self._idle.clear()
        self._busy.clear()

    # ---------------------------------------------------------- lifecycle
    def cancel(self) -> int:
        cancelled = len(self._open)
        self._open.clear()
        self._pending.clear()
        self._shutdown_workers(kill=True)
        self._wall.close(ok=False, reason="cancelled")
        return cancelled

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._shutdown_workers(kill=False)
        self._wall.close(ok=False, reason="closed")
        self._results.close()
        self._results.cancel_join_thread()

    # --------------------------------------------------------- internals
    def _step(self, timeout: Optional[float]) -> list[TaskResult]:
        self._reap_dead_workers()
        if self._serial:
            return []
        self._expire_overdue()
        if self._serial:
            return []
        self._dispatch_ready()
        try:
            ticket, worker_id, value = self._results.get(timeout=POLL_TICK_S)
        except queue.Empty:
            return []
        self._liveness.finish(ticket)
        self._wall.end(ticket, ok=True)
        if self._busy.get(worker_id) == ticket:
            del self._busy[worker_id]
            if worker_id in self._workers:
                self._idle.append(worker_id)
        result = self._complete(ticket, value)
        return [result] if result is not None else []

    def _dispatch_ready(self) -> None:
        while self._idle:
            issued = self._next_ready(self._idle[-1], len(self._workers))
            if issued is None:
                return
            ticket, task, dispatch = issued
            worker_id = self._idle.pop()
            self._busy[worker_id] = ticket
            self._inboxes[worker_id].put(
                (ticket, task.benchmark, task.part, task.payload(), dispatch)
            )
            self._liveness.start(ticket, self.task_timeout)
            self._wall.begin(
                ticket, "dispatch", task.token, worker=worker_id, dispatch=dispatch
            )
            self.metrics.counter("executor_dispatches").inc()

    def _reap_dead_workers(self) -> None:
        for worker_id, process in list(self._workers.items()):
            if process.is_alive():
                continue
            self._remove_worker(
                worker_id, reason=f"process exited (code {process.exitcode})"
            )
            if self._serial:
                return

    def _expire_overdue(self) -> None:
        for ticket in self._liveness.overdue():
            self.metrics.counter("executor_deadline_expirations").inc()
            worker_id = next(
                (w for w, t in self._busy.items() if t == ticket), None
            )
            if worker_id is not None:
                self._remove_worker(
                    worker_id,
                    reason=(
                        f"task deadline ({self.task_timeout:.1f}s) expired "
                        "(wedged worker or dropped result)"
                    ),
                    kill=True,
                )
            else:  # pragma: no cover - ticket raced its worker's removal
                self._liveness.finish(ticket)
            if self._serial:
                return

    def _degrade(self, reason: str, detail: str) -> None:
        self._shutdown_workers(kill=True)
        self._record_degradation(reason, detail, self.worker_deaths)
        self._go_serial()


def make_sweep_executor(
    kind: str,
    task_fn: Callable[[tuple], Any],
    jobs: int,
    cache_dir=None,
    *,
    trace_length: int = 0,
    task_timeout: Optional[float] = None,
    redispatch_budget: int = 2,
    worker_fault_plan=None,
    seed: int = 0,
    self_check: bool = False,
    engine: Optional[str] = None,
    dist_bind: str = "127.0.0.1",
    dist_port: int = 0,
    dist_min_hosts: int = 1,
    dist_wait_s: float = 10.0,
    spans=None,
) -> SweepExecutor:
    """Build the executor requested by ``EvaluationOptions.executor``.

    ``task_timeout=None`` derives a deadline from ``trace_length`` (and
    the cost-scaling ``self_check``/``engine`` knobs) via
    :func:`default_task_timeout`; the re-dispatch backoff reuses the
    deterministic seeded :class:`~repro.robustness.retry.RetryPolicy`.
    ``kind="distributed"`` builds the multi-host coordinator of
    :mod:`repro.dist.coordinator` listening on
    ``dist_bind:dist_port``; the ``dist_*`` knobs are ignored by the
    single-host executors.
    """
    timeout = (
        task_timeout
        if task_timeout is not None
        else default_task_timeout(
            trace_length, self_check=self_check, engine=engine
        )
    )
    policy = RetryPolicy(
        max_attempts=max(1, redispatch_budget + 1),
        base_delay=0.05,
        max_delay=1.0,
        seed=seed,
    )
    if kind == "supervised":
        return SupervisedPoolExecutor(
            task_fn,
            jobs,
            cache_dir,
            task_timeout=timeout,
            redispatch_budget=redispatch_budget,
            redispatch_policy=policy,
            worker_fault_plan=worker_fault_plan,
            spans=spans,
        )
    if kind == "distributed":
        from repro.dist.coordinator import DistributedExecutor

        return DistributedExecutor(
            task_fn,
            jobs,
            cache_dir,
            bind=dist_bind,
            port=dist_port,
            task_timeout=timeout,
            redispatch_budget=redispatch_budget,
            redispatch_policy=policy,
            min_hosts=dist_min_hosts,
            wait_for_hosts_s=dist_wait_s,
            spans=spans,
        )
    raise ConfigError(
        f"unknown sweep executor {kind!r}; valid: {EXECUTOR_KINDS}",
        executor=kind,
    )


__all__ = [
    "BASE_SECONDS_PER_INSTRUCTION",
    "BATCHED_ENGINE_TIMEOUT_FACTOR",
    "EXECUTOR_KINDS",
    "MIN_TASK_TIMEOUT",
    "POLL_TICK_S",
    "SELF_CHECK_TIMEOUT_FACTOR",
    "ExecutorDegradation",
    "SupervisedPoolExecutor",
    "SweepExecutor",
    "SweepTask",
    "TaskLiveness",
    "TaskResult",
    "default_task_timeout",
    "make_sweep_executor",
]
