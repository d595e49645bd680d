"""The SweepExecutor interface: supervision, deadlines, re-dispatch."""

import os
import time

import pytest

from repro.errors import ConfigError
from repro.experiments.harness import PART_BINARY, EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.perf.executor import (
    MIN_TASK_TIMEOUT,
    SupervisedPoolExecutor,
    SweepTask,
    TaskLiveness,
    default_task_timeout,
    make_sweep_executor,
)
from repro.perf.fingerprint import fingerprint
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.robustness.journal import RunJournal
from repro.robustness.retry import RetryPolicy

TL = 600


def _echo_task(payload):
    """Module-level task function (workers import it by name)."""
    name, part, options = payload
    return (name, part, f"value:{name}:{part}", 1, None)


def _pid_task(payload):
    """Which process ran the task."""
    return os.getpid()


def _run_all(executor, tasks):
    """Submit everything, poll until drained; results keyed by token."""
    with executor:
        for task in tasks:
            executor.submit(task)
        out = {}
        while executor.outstanding:
            for result in executor.poll():
                out[result.task.token] = result
    return out


def _tasks(n=3):
    return [SweepTask(benchmark=f"b{i}", part="single") for i in range(n)]


def _supervised(**kwargs):
    return SupervisedPoolExecutor(_echo_task, jobs=1, **kwargs)


def _distributed(**kwargs):
    # With no worker attached it never dispatches: submit and cancel run
    # on the shared ledger alone.
    from repro.dist.coordinator import DistributedExecutor

    return DistributedExecutor(_echo_task, jobs=1, **kwargs)


#: The task-ledger contract holds for every executor.
each_executor = pytest.mark.parametrize(
    "make", [_supervised, _distributed], ids=["supervised", "distributed"]
)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestSupervisedHappyPath:
    def test_delivers_every_task_once(self):
        sup = SupervisedPoolExecutor(_echo_task, jobs=2, task_timeout=30.0)
        results = _run_all(sup, _tasks(5))
        assert len(results) == 5
        assert all(r.dispatches == 1 for r in results.values())
        assert sup.degradation is None
        assert sup.worker_deaths == 0

    def test_metrics_count_dispatches(self):
        sup = SupervisedPoolExecutor(_echo_task, jobs=2, task_timeout=30.0)
        _run_all(sup, _tasks(3))
        snapshot = sup.metrics.snapshot()
        assert snapshot["executor_dispatches"] == 3
        assert snapshot["executor_tasks_completed"] == 3
        assert snapshot["executor_worker_deaths"] == 0


class TestSupervisedFaults:
    def test_killed_worker_is_survived(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_kill", benchmark="b1", clear_after=1),)
        )
        sup = SupervisedPoolExecutor(
            _echo_task, jobs=2, task_timeout=30.0, worker_fault_plan=plan
        )
        results = _run_all(sup, _tasks(3))
        assert len(results) == 3
        assert results["b1:single"].dispatches == 2
        assert sup.worker_deaths >= 1
        assert sup.redispatches == 1
        assert sup.degradation is None

    def test_stalled_worker_hits_deadline(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_stall", benchmark="b0", clear_after=1),)
        )
        sup = SupervisedPoolExecutor(
            _echo_task, jobs=2, task_timeout=1.0, worker_fault_plan=plan
        )
        results = _run_all(sup, _tasks(2))
        assert len(results) == 2
        assert results["b0:single"].dispatches == 2
        assert sup.metrics.snapshot()["executor_deadline_expirations"] >= 1
        assert sup.degradation is None

    def test_partitioned_result_is_recovered(self):
        # The worker computes the value and drops it; only the deadline
        # can notice, and the re-dispatch must still come home.
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="worker_partition", benchmark="b2", clear_after=1),
            )
        )
        sup = SupervisedPoolExecutor(
            _echo_task, jobs=2, task_timeout=1.0, worker_fault_plan=plan
        )
        results = _run_all(sup, _tasks(3))
        assert len(results) == 3
        assert results["b2:single"].dispatches == 2
        assert sup.degradation is None


class TestCircuitBreaker:
    def test_persistent_kill_degrades_to_serial(self):
        # clear_after=None: the task kills every worker that picks it
        # up.  The breaker must trip and the sweep must still complete.
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill", benchmark="b0"),))
        sup = SupervisedPoolExecutor(
            _echo_task,
            jobs=2,
            task_timeout=30.0,
            redispatch_budget=1,
            worker_fault_plan=plan,
        )
        results = _run_all(sup, _tasks(3))
        assert len(results) == 3  # every task still delivered
        assert results["b0:single"].value[2] == "value:b0:single"
        assert sup.degradation is not None
        assert sup.degradation.reason == "circuit-breaker"
        assert "budget 1 exhausted" in sup.degradation.detail
        assert sup.metrics.snapshot()["executor_degradations"] == 1

    def test_death_budget_trips_breaker(self):
        # Kills spread across distinct tasks: no single task exhausts
        # its budget, but the pool-wide death budget must still trip.
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill"),))  # every task
        sup = SupervisedPoolExecutor(
            _echo_task,
            jobs=2,
            task_timeout=30.0,
            redispatch_budget=10,
            max_worker_deaths=3,
            worker_fault_plan=plan,
        )
        results = _run_all(sup, _tasks(6))
        assert len(results) == 6
        assert sup.degradation is not None
        assert sup.worker_deaths > 3

    def test_breaker_keeps_results_bit_identical(self, tmp_path):
        serial = run_table2(["compress"], EvaluationOptions(trace_length=TL))
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_kill", benchmark="compress",
                             part="single"),)
        )
        journal = RunJournal(tmp_path)
        degraded = run_table2(
            ["compress"],
            EvaluationOptions(
                trace_length=TL,
                jobs=2,
                executor="supervised",
                task_timeout=60.0,
                redispatch_budget=0,
                worker_fault_plan=plan,
                heartbeat_interval=None,
            ),
            journal=journal,
        )
        assert degraded.failures == []
        s_ev, d_ev = serial.rows[0].evaluation, degraded.rows[0].evaluation
        for part in ("single", "dual_none", "dual_local"):
            assert (
                getattr(d_ev, part).stats.as_dict()
                == getattr(s_ev, part).stats.as_dict()
            )
        # The degradation is a durable journal event, not a crash.
        reopened = RunJournal(tmp_path)
        kinds = [event.get("kind") for event in reopened.events]
        assert "executor_degradation" in kinds


class TestAcceptanceWorkerKill:
    def test_sweep_losing_a_worker_is_bit_identical_to_serial(self):
        """ISSUE 6 acceptance: SIGKILL mid-run, identical fingerprints."""
        serial = run_table2(["compress"], EvaluationOptions(trace_length=TL))
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_kill", benchmark="compress",
                             part="dual_none", clear_after=1),)
        )
        survived = run_table2(
            ["compress"],
            EvaluationOptions(
                trace_length=TL,
                jobs=2,
                executor="supervised",
                task_timeout=60.0,
                worker_fault_plan=plan,
                heartbeat_interval=None,
            ),
        )
        assert survived.failures == []
        for row_s, row_k in zip(serial.rows, survived.rows):
            for part in ("single", "dual_none", "dual_local"):
                want = fingerprint(
                    getattr(row_s.evaluation, part).stats.as_dict()
                )
                got = fingerprint(
                    getattr(row_k.evaluation, part).stats.as_dict()
                )
                assert got == want, f"{row_s.benchmark}/{part} diverged"


class TestFactoryAndTimeouts:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep executor"):
            make_sweep_executor("threads", _echo_task, 2)

    def test_default_timeout_scales_with_trace_length(self):
        assert default_task_timeout(0) == MIN_TASK_TIMEOUT
        assert default_task_timeout(120_000) > MIN_TASK_TIMEOUT
        assert default_task_timeout(10 ** 6) > default_task_timeout(10 ** 5)

    def test_default_timeout_scales_with_evaluation_cost(self):
        # ISSUE 8 satellite: the deadline must track what actually
        # drives simulation cost, not just the trace length.
        tl = 10 ** 6
        plain = default_task_timeout(tl)
        checked = default_task_timeout(tl, self_check=True)
        batched = default_task_timeout(tl, engine="batched")
        assert checked > plain  # self-check multiplies per-cycle work
        assert batched < plain  # the fused kernel is faster
        # engine=None means the reference kernel — same budget.
        assert default_task_timeout(tl, engine="reference") == plain
        # The floor still applies however cheap the options make a task.
        assert (
            default_task_timeout(0, engine="batched") == MIN_TASK_TIMEOUT
        )

    def test_factory_derives_timeout_from_options(self):
        fast = make_sweep_executor(
            "supervised", _echo_task, 1, trace_length=10 ** 6,
            engine="batched",
        )
        slow = make_sweep_executor(
            "supervised", _echo_task, 1, trace_length=10 ** 6,
            self_check=True,
        )
        try:
            assert fast.task_timeout < slow.task_timeout
        finally:
            fast.close()
            slow.close()

    def test_factory_builds_both_kinds(self):
        from repro.dist.coordinator import DistributedExecutor

        sup = make_sweep_executor(
            "supervised", _echo_task, 1, trace_length=1000
        )
        dist = make_sweep_executor("distributed", _echo_task, 1)
        try:
            assert isinstance(sup, SupervisedPoolExecutor)
            assert sup.task_timeout == default_task_timeout(1000)
            assert isinstance(dist, DistributedExecutor)
        finally:
            sup.close()
            dist.close()

    def test_pool_kind_is_gone(self):
        with pytest.raises(ConfigError, match="unknown sweep executor") as info:
            make_sweep_executor("pool", _echo_task, 2)
        message = str(info.value)
        assert "supervised" in message and "distributed" in message


class TestLedgerContract:
    @each_executor
    def test_duplicate_submit_rejected(self, make):
        with make(task_timeout=30.0) as executor:
            executor.submit(SweepTask(benchmark="x", part="single"))
            with pytest.raises(ConfigError, match="already submitted"):
                executor.submit(SweepTask(benchmark="x", part="single"))

    @each_executor
    def test_invalid_ledger_knobs_rejected(self, make):
        with pytest.raises(ConfigError, match="task_timeout"):
            make(task_timeout=0.0)
        with pytest.raises(ConfigError, match="budget"):
            make(task_timeout=1.0, redispatch_budget=-1)


def _pid_after_sleep(payload):
    """Sleep for the task's ``options`` seconds, then say which process
    ran it."""
    _, _, delay = payload
    time.sleep(delay)
    return os.getpid()


def _native_pair(single_s=0.0, dual_none_s=0.0):
    """Table 2's ``single`` and ``dual_none`` parts of benchmark ``a``:
    one binary, so one affinity key."""
    return [
        SweepTask("a", part, delay, affinity=f"a:{PART_BINARY[part]}")
        for part, delay in (("single", single_s), ("dual_none", dual_none_s))
    ]


def _drain_in_order(executor, tasks, deadline_s=60.0):
    """Like :func:`_run_all`, but keeps completion order and fails
    instead of hanging when a task is never dispatched."""
    done = []
    give_up = time.monotonic() + deadline_s
    with executor:
        for task in tasks:
            executor.submit(task)
        while executor.outstanding:
            assert time.monotonic() < give_up, "a task was never dispatched"
            done.extend(executor.poll(timeout=1.0))
    return done


def _steals(executor) -> int:
    return executor.metrics.counter("executor_affinity_steals").value


class TestAffinityDispatch:
    def test_held_key_waits_while_the_queue_is_long(self):
        # One worker takes a:single and its key.  The queue holds over
        # two tasks per worker for far longer than a:single runs, so the
        # other worker works through keyless tasks and a:dual_none waits
        # for the key's holder instead of being compiled twice.
        pair = _native_pair(single_s=0.1)
        filler = [SweepTask(f"b{i}", "single", 0.2) for i in range(8)]
        sup = SupervisedPoolExecutor(_pid_after_sleep, jobs=2, task_timeout=30.0)
        done = {r.task.token: r.value for r in _drain_in_order(sup, pair + filler)}
        assert done["a:single"] == done["a:dual_none"]
        assert _steals(sup) == 0

    def test_short_queue_is_plain_fifo(self):
        # Three tasks for two workers: holding a:dual_none back would put
        # it behind a:single on the critical path, so it goes out in FIFO
        # order, ahead of b:single, to the worker a:single left free.
        tasks = [*_native_pair(single_s=1.0), SweepTask("b", "single", 0.0)]
        sup = SupervisedPoolExecutor(_pid_after_sleep, jobs=2, task_timeout=30.0)
        done = _drain_in_order(sup, tasks)
        assert [r.task.token for r in done] == ["a:dual_none", "b:single", "a:single"]
        assert done[0].value != done[2].value
        assert _steals(sup) == 1

    def test_no_worker_idles_while_work_is_ready(self):
        # Every task shares one key, and its holder is busy with the
        # first: the other worker takes the rest rather than idle.
        tasks = [SweepTask("a", "p0", 1.0, affinity="a")]
        tasks += [SweepTask("a", f"p{i}", 0.0, affinity="a") for i in range(1, 5)]
        sup = SupervisedPoolExecutor(_pid_after_sleep, jobs=2, task_timeout=30.0)
        *rest, first = _drain_in_order(sup, tasks)
        assert first.task.part == "p0"
        assert all(result.value != first.value for result in rest)
        assert _steals(sup) == 4

    def test_one_worker_keeps_fifo_order(self):
        # With no other worker to hold a key, dispatch is plain FIFO,
        # keyed and keyless tasks alike.
        first, second = _native_pair()
        tasks = [first, *_tasks(3), second]
        sup = SupervisedPoolExecutor(_pid_task, jobs=1, task_timeout=30.0)
        done = _drain_in_order(sup, tasks)
        assert [r.task.token for r in done] == [t.token for t in tasks]

    def test_dead_workers_keys_are_released(self):
        # a:single kills the pool's one worker while it holds the key.
        # Its replacement must take a:dual_none as a free key, not as a
        # steal from the dead worker, and then run the requeued a:single.
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="worker_kill", benchmark="a", part="single", clear_after=1),
            )
        )
        sup = SupervisedPoolExecutor(
            _pid_after_sleep, jobs=1, task_timeout=30.0, worker_fault_plan=plan
        )
        done = {r.task.token: r for r in _drain_in_order(sup, _native_pair())}
        assert done["a:single"].dispatches == 2
        assert done["a:single"].value == done["a:dual_none"].value
        assert sup.worker_deaths == 1
        assert _steals(sup) == 0
        assert sup.degradation is None


class TestTaskLiveness:
    def test_overdue_names_expired_tasks_oldest_first(self):
        clock = FakeClock()
        liveness = TaskLiveness(clock=clock)
        liveness.start("late", timeout_s=5.0)
        clock.now += 1
        liveness.start("later", timeout_s=5.0)
        liveness.start("fine", timeout_s=60.0)
        assert liveness.overdue() == []
        clock.now += 6
        assert liveness.overdue() == ["late", "later"]

    def test_finish_returns_elapsed_and_clears(self):
        clock = FakeClock()
        liveness = TaskLiveness(clock=clock)
        liveness.start("t", timeout_s=10.0)
        clock.now += 3
        assert liveness.finish("t") == 3.0
        assert liveness.overdue() == []

    def test_double_finish_is_not_an_error(self):
        liveness = TaskLiveness(clock=FakeClock())
        liveness.start("t", timeout_s=10.0)
        assert liveness.finish("t") == 0.0
        assert liveness.finish("t") is None

    def test_renew_extends_deadline_keeping_start(self):
        # The lease path: renewals push the deadline out but the entry's
        # age keeps counting from the original start.
        clock = FakeClock()
        liveness = TaskLiveness(clock=clock)
        liveness.start("lease", timeout_s=5.0)
        clock.now += 4
        liveness.renew("lease", timeout_s=5.0)
        clock.now += 4
        assert liveness.overdue() == []  # deadline moved to t=9
        clock.now += 2
        assert liveness.overdue() == ["lease"]
        assert liveness.finish("lease") == 10.0  # age still from t=0

    def test_renew_starts_missing_entry(self):
        clock = FakeClock()
        liveness = TaskLiveness(clock=clock)
        liveness.renew("new", timeout_s=5.0)
        clock.now += 6
        assert liveness.overdue() == ["new"]


class TestCancel:
    @each_executor
    def test_cancel_reports_undelivered_tasks(self, make):
        executor = make(task_timeout=30.0)
        for task in _tasks(3):
            executor.submit(task)
        cancelled = executor.cancel()
        assert cancelled == 3
        assert executor.outstanding == 0
        executor.close()

    def test_cancel_while_requeued_task_is_inside_backoff(self):
        # ISSUE 8 satellite: a worker_kill puts its task into the
        # pending deque with a far-future not_before; cancel() must drop
        # the waiting task, zero outstanding, and orphan no processes.
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_kill", benchmark="b0",
                             clear_after=1),)
        )
        sup = SupervisedPoolExecutor(
            _echo_task,
            jobs=1,
            task_timeout=30.0,
            worker_fault_plan=plan,
            redispatch_policy=RetryPolicy(
                max_attempts=5, base_delay=120.0, max_delay=120.0, seed=0
            ),
        )
        for task in _tasks(2):
            sup.submit(task)
        # Drain b1; b0's re-dispatch is now parked behind a ~2-minute
        # backoff deadline (the kill was noticed first).
        delivered = {}
        while "b1:single" not in delivered:
            for result in sup.poll(timeout=1.0):
                delivered[result.task.token] = result
        assert sup.outstanding == 1
        processes = list(sup._workers.values())
        cancelled = sup.cancel()
        assert cancelled == 1
        assert sup.outstanding == 0
        sup.close()
        for process in processes:
            process.join(timeout=10.0)
            assert not process.is_alive()
