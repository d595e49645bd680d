"""The sweep executor: submit/poll/cancel over ``(benchmark, part, options)`` tasks.

A plain process pool has one blind spot: a worker that *dies*
(SIGKILL, the OOM killer) or *wedges* (a runaway simulation, a result
lost in flight) stalls the whole sweep forever — ``concurrent.futures``
only surfaces a broken pool, and only sometimes.  This module makes
worker failure a first-class, recoverable event behind the sweep
driver (:func:`repro.perf.parallel.fan_out`):

* :class:`SupervisedPoolExecutor` — :meth:`~SupervisedPoolExecutor.submit`
  tasks, :meth:`~SupervisedPoolExecutor.poll` completed results,
  :meth:`~SupervisedPoolExecutor.cancel` on interrupt.  Sweep drivers
  see task results in completion order and stay bit-identical to
  serial because every task is a pure function of its ``(benchmark,
  part, options)`` payload — *which* worker or process computes it, or
  how many times, cannot change the value.  It runs one supervised
  process per slot, each fed through its own inbox queue so the
  supervisor always knows which task is on which worker, and it is the
  sweep's task ledger (tickets, affinity dispatch, re-dispatch budget
  and backoff).  Per-task deadlines (sized from the trace length by
  :func:`default_task_timeout`) are tracked by :class:`TaskLiveness`;
  a dead pid or an expired deadline costs exactly one task, which is
  re-dispatched under a bounded budget using the deterministic seeded
  backoff of :mod:`repro.robustness.retry`.  When workers keep dying —
  a task exhausts its re-dispatch budget or the pool exceeds its
  global death budget — a circuit breaker trips: the pool is torn
  down, an :class:`ExecutorDegradation` is recorded (the
  ``BenchmarkFailure`` of the executor layer — an event, not a crash),
  and the open tasks are handed back
  (:attr:`~SupervisedPoolExecutor.handed_back`) for the driver to run
  on its own serial path, so the sweep *always* completes with the
  same rows.

Failure model (what the supervisor treats as a lost task):

========================  =============================================
observation               meaning
========================  =============================================
worker pid not alive      the process died (chaos ``worker_kill``,
                          OOM) — re-dispatch now
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
from repro.obs.spans import WallSpans
from repro.perf.cache import ArtifactCache
from repro.robustness.retry import RetryPolicy

log = logging.getLogger("repro.executor")

#: Seconds one pass of an executor's event loop waits for a result.
POLL_TICK_S = 0.05

#: Floor for derived per-task deadlines (seconds).
MIN_TASK_TIMEOUT = 30.0

#: Deadline budget per dynamic instruction (seconds) without
#: self-checking.  Sized on the reference model, which is 2.7-3.2x slower
#: than the batched model runs use, so it leaves a wide margin over the
#: worst observed cost.
BASE_SECONDS_PER_INSTRUCTION = 0.0025

#: Per-cycle invariant checking multiplies simulation cost severalfold;
#: the deadline must scale with it or ``--self-check`` sweeps on long
#: traces expire healthy workers.
SELF_CHECK_TIMEOUT_FACTOR = 4.0

#: Seeded re-dispatch backoff (seconds): the first delay and the cap.
REDISPATCH_BASE_DELAY_S = 0.05
REDISPATCH_MAX_DELAY_S = 1.0

#: A worker process's own artifact cache.
_WORKER_CACHE: Optional[ArtifactCache] = None


def default_task_timeout(trace_length: int, *, self_check: bool = False) -> float:
    """A per-task deadline sized from the trace length and options.

    One task is one compile + trace + simulate of ``trace_length``
    dynamic instructions; the budget is a generous multiple of the
    worst observed per-instruction cost so only a genuinely wedged or
    partitioned worker ever hits it.  ``self_check`` (per-cycle invariant
    checking) multiplies the per-instruction rate by
    :data:`SELF_CHECK_TIMEOUT_FACTOR`.
    """
    per_instruction = BASE_SECONDS_PER_INSTRUCTION
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
    """The calling worker's artifact cache (see :func:`_init_worker`)."""
    assert _WORKER_CACHE is not None, "not in a sweep worker"
    return _WORKER_CACHE


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
    :meth:`SupervisedPoolExecutor._next_ready`).
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

    Set (never raised) when the supervised pool gives up on its workers
    and hands the open tasks back to the sweep driver, which runs them
    serially: the sweep still completes with bit-identical rows, and
    this event — journaled as a durable ``status: "event"`` record when
    a journal is attached — is the audit trail that the faster path was
    abandoned and why.  ``remaining_tasks`` counts the tasks handed
    back.
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

    Each dispatched task is registered with :meth:`start` under its own
    deadline; :meth:`overdue` names the keys whose deadline has passed
    — a wedged worker or a result lost in flight — so the executor can
    kill and re-dispatch.  Clock injection keeps deadline tests
    deterministic.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        #: key -> (started_at, deadline) for in-flight work.
        self._inflight: dict = {}

    def start(self, key, timeout_s: float) -> None:
        """Track ``key`` with a deadline ``timeout_s`` from now."""
        now = self.clock()
        self._inflight[key] = (now, now + timeout_s)

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


# ------------------------------------------------------- supervised worker
def _supervised_worker(
    worker_id: int, inbox, results, task_fn, cache_dir, fault_plan
) -> None:
    """One supervised worker: drain the inbox until the ``None`` pill.

    The chaos hooks live here, at task pickup, where a real worker loss
    would be observed: ``worker_kill`` SIGKILLs the process (a crashed
    or OOM-killed worker), ``worker_stall`` wedges it (a runaway or hung
    run; the supervisor's deadline puts it down), ``worker_partition``
    computes the result and drops it (the worker finished but the
    result never made it home).
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


class SupervisedPoolExecutor:
    """Process pool with supervision: deadlines, re-dispatch, breaker.

    Lifecycle: ``submit()`` any number of tasks, then ``poll()`` until
    :attr:`outstanding` reaches zero (dispatch starts at the first
    poll, so affinity dispatch sees the whole batch); ``cancel()`` on
    interrupt tears everything down and reports how many tasks never
    completed.  Usable as a context manager (``close()`` on exit).  Each
    submitted task is either delivered exactly once, in completion
    order, or — once the breaker has tripped — handed back, in
    submission order, in :attr:`handed_back`.

    One process per slot, each with a private inbox queue, so the
    supervisor knows exactly which task every worker holds.  The
    executor is also the sweep's task ledger: the open/pending/dispatch/
    ticket maps, duplicate dropping, budgeted re-dispatch under the
    seeded backoff and the degradation record.  See the module
    docstring for the failure model; the key invariant is that a task's
    value is independent of which worker computes it (tasks are pure
    functions of their payload), so loss-and-re-dispatch keeps sweeps
    bit-identical to serial.

    ``task_timeout=None`` derives the per-task deadline from
    ``trace_length`` and ``self_check`` (:func:`default_task_timeout`);
    ``seed`` seeds the re-dispatch backoff.  The pool survives at most
    ``2 * jobs + 2`` worker deaths.
    """

    def __init__(
        self,
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
        spans=None,
    ) -> None:
        if task_timeout is None:
            task_timeout = default_task_timeout(trace_length, self_check=self_check)
        if task_timeout <= 0:
            raise ConfigError(
                "supervised executor needs task_timeout > 0 seconds",
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
        self._policy = RetryPolicy(
            max_attempts=redispatch_budget + 1,
            base_delay=REDISPATCH_BASE_DELAY_S,
            max_delay=REDISPATCH_MAX_DELAY_S,
            seed=seed,
        )
        self._wall = WallSpans(spans)
        self._liveness = TaskLiveness()  # keyed by ticket
        self._open: dict[str, SweepTask] = {}  # token -> task (not completed)
        self._pending: collections.deque = collections.deque()  # (token, not_before)
        self._dispatches: dict[str, int] = {}  # token -> dispatch count
        self._tickets: dict[int, str] = {}  # ticket -> token
        self._holders: dict[str, Any] = {}  # affinity key -> worker
        self._ticket_seq = itertools.count(1)
        self.redispatches = 0
        self.affinity_steals = 0
        self.worker_deaths = 0
        #: Why the breaker tripped; ``None`` on the happy path.
        self.degradation: Optional[ExecutorDegradation] = None
        #: The open tasks a tripped breaker gave up on, in submission order.
        self.handed_back: list[SweepTask] = []
        self._fault_plan = worker_fault_plan
        self._ctx = _mp_context()
        self._results = self._ctx.Queue()
        self._workers: dict[int, Any] = {}
        self._inboxes: dict[int, Any] = {}
        self._idle: list[int] = []
        self._busy: dict[int, int] = {}  # worker_id -> ticket
        self._worker_seq = itertools.count(1)
        self._closed = False
        for _ in range(self._jobs):
            self._spawn_worker()

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
        """Submitted tasks that poll() may still return."""
        return len(self._open)

    def poll(self, timeout: Optional[float] = None) -> list[TaskResult]:
        """Completed tasks since the last call (blocks for at least one
        unless ``timeout`` expires or nothing is outstanding)."""
        results: list[TaskResult] = []
        started = time.monotonic()
        while not results and self._open:
            results.extend(self._step())
            if timeout is not None and time.monotonic() - started >= timeout:
                break
        return results

    def cancel(self) -> int:
        """Tear down workers and drop pending work; returns the number
        of tasks that will never complete."""
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

    def __enter__(self) -> "SupervisedPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
        log.warning("supervised pool lost worker %d: %s", worker_id, reason)
        ticket = self._busy.pop(worker_id, None)
        if ticket is not None:
            self._liveness.finish(ticket)
            self._wall.end(ticket, ok=False, reason=reason)
            self._requeue(ticket, reason)
        if self.degradation is not None:
            return  # the requeue exhausted the task's budget
        death_budget = 2 * self._jobs + 2
        if self.worker_deaths > death_budget:
            self._degrade(
                "circuit-breaker",
                f"{self.worker_deaths} worker deaths exceed the pool's "
                f"budget of {death_budget}",
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

    # --------------------------------------------------------- internals
    def _step(self) -> list[TaskResult]:
        """One bounded pass of the supervisor's event loop."""
        self._reap_dead_workers()
        self._expire_overdue()
        if self.degradation is not None:
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
        """Hand ready tasks (see :meth:`_next_ready`) to idle workers."""
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

    def _reap_dead_workers(self) -> None:
        for worker_id, process in list(self._workers.items()):
            if self.degradation is not None:
                return
            if not process.is_alive():
                self._remove_worker(
                    worker_id, reason=f"process exited (code {process.exitcode})"
                )

    def _expire_overdue(self) -> None:
        for ticket in self._liveness.overdue():
            if self.degradation is not None:
                return
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

    def _degrade(self, reason: str, detail: str) -> None:
        """Trip the breaker: kill the workers, record why, and hand every
        open task back (:attr:`handed_back`) for the driver to run on its
        serial path.  Fault injection lives in the workers, so that path
        always completes."""
        self._shutdown_workers(kill=True)
        self.handed_back.extend(self._open.values())
        self._open.clear()
        self._pending.clear()
        self.degradation = ExecutorDegradation(
            reason=reason,
            detail=detail,
            worker_deaths=self.worker_deaths,
            redispatches=self.redispatches,
            remaining_tasks=len(self.handed_back),
        )
        self._wall.instant(
            "degradation", "supervised", detail=detail,
            remaining=len(self.handed_back),
        )
        log.warning("supervised executor degrading (%s): %s", reason, detail)

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
        ready it is taken anyway (counted in :attr:`affinity_steals`),
        so no worker idles while work is ready.  On a shorter queue
        dispatch is plain FIFO: holding a task back for its key's holder
        would then put a whole part on the sweep's critical path to save
        one compile.  A worker takes the key of each keyed task it is
        handed whose key no one holds.
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
            self.affinity_steals += 1
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
                "circuit-breaker",
                f"task {token} lost {used} dispatch(es) ({reason}); "
                f"re-dispatch budget {self.redispatch_budget} exhausted",
            )
            return
        self.redispatches += 1
        self._wall.instant("requeue", token, reason=reason)
        delay = 0.0
        schedule = self._policy.schedule(token)
        if schedule:
            delay = schedule[min(max(used - 1, 0), len(schedule) - 1)]
        self._pending.append((token, time.monotonic() + delay))


__all__ = [
    "BASE_SECONDS_PER_INSTRUCTION",
    "MIN_TASK_TIMEOUT",
    "POLL_TICK_S",
    "REDISPATCH_BASE_DELAY_S",
    "REDISPATCH_MAX_DELAY_S",
    "SELF_CHECK_TIMEOUT_FACTOR",
    "ExecutorDegradation",
    "SupervisedPoolExecutor",
    "SweepTask",
    "TaskLiveness",
    "TaskResult",
    "default_task_timeout",
]
