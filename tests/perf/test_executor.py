"""The supervised sweep executor: supervision, deadlines, re-dispatch."""

import os
import time

import pytest

from repro.errors import ConfigError, SweepInterrupted
from repro.experiments.harness import PART_BINARY, EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.perf import executor as executor_mod
from repro.perf.cache import ArtifactCache
from repro.perf.executor import (
    BASE_SECONDS_PER_INSTRUCTION,
    MIN_TASK_TIMEOUT,
    SupervisedPoolExecutor,
    SweepTask,
    TaskLiveness,
    default_task_timeout,
)
from repro.perf.fingerprint import fingerprint
from repro.perf.parallel import fan_out
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.robustness.journal import RunJournal

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
        assert sup.redispatches == 0


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
        assert sup.worker_deaths == 1  # the wedged worker, put down
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
        assert sup.worker_deaths == 1
        assert sup.degradation is None


def _fan_out_echo(tasks, journal=None, deliver=None, **executor_options):
    """``fan_out`` over :func:`_echo_task` on two workers; the delivered
    values by token, in delivery order."""
    delivered = {}

    def keep(task, value):
        delivered[task.token] = value

    fan_out(
        _echo_task,
        tasks,
        2,
        deliver or keep,
        run_serial=lambda task: _echo_task(task.payload()),
        journal=journal,
        **executor_options,
    )
    return delivered


def _degradations(run_dir):
    """The ``executor_degradation`` payloads a reopened journal holds."""
    return [
        event["payload"]
        for event in RunJournal(run_dir).events
        if event.get("kind") == "executor_degradation"
    ]


class TestCircuitBreaker:
    def test_persistent_kill_degrades_to_serial(self, tmp_path):
        # clear_after=None: the task kills every worker that picks it
        # up.  The breaker must trip and the sweep must still complete.
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill", benchmark="b0"),))
        tasks = _tasks(3)
        with RunJournal(tmp_path) as journal:
            delivered = _fan_out_echo(
                tasks,
                journal,
                task_timeout=30.0,
                redispatch_budget=1,
                worker_fault_plan=plan,
            )
        # Every task delivered once, with the value serial computes.
        assert delivered == {t.token: _echo_task(t.payload()) for t in tasks}
        (degradation,) = _degradations(tmp_path)
        assert degradation["reason"] == "circuit-breaker"
        assert "budget 1 exhausted" in degradation["detail"]

    def test_death_budget_trips_breaker(self, tmp_path):
        # Kills spread across distinct tasks: no single task exhausts
        # its budget, but the pool-wide death budget (2 * jobs + 2)
        # must still trip.
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill"),))  # every task
        tasks = _tasks(6)
        with RunJournal(tmp_path) as journal:
            delivered = _fan_out_echo(
                tasks,
                journal,
                task_timeout=30.0,
                redispatch_budget=10,
                worker_fault_plan=plan,
            )
        assert delivered == {t.token: _echo_task(t.payload()) for t in tasks}
        (degradation,) = _degradations(tmp_path)
        assert "budget of 6" in degradation["detail"]
        assert degradation["worker_deaths"] == 7
        assert degradation["remaining_tasks"] == 6

    def test_degradation_is_journaled_before_the_serial_tail(self, tmp_path):
        # The breaker trips before any result comes home, so the first
        # delivery is in the serial tail; a Ctrl-C there must not lose
        # the event, and must count every undelivered task.
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill"),))

        def interrupted(task, value):
            raise KeyboardInterrupt("simulated Ctrl-C")

        with RunJournal(tmp_path) as journal:
            with pytest.raises(SweepInterrupted) as info:
                _fan_out_echo(
                    _tasks(3),
                    journal,
                    deliver=interrupted,
                    task_timeout=30.0,
                    redispatch_budget=0,
                    worker_fault_plan=plan,
                )
        assert len(_degradations(tmp_path)) == 1
        assert info.value.context["cancelled_units"] == 3

    def test_breaker_tail_uses_the_callers_cache(self, tmp_path):
        # Two degraded sweeps in one process, each on its own cache
        # directory: the tail must write to the sweep's own cache, not
        # to a cache left over from an earlier sweep.  Artifact keys are
        # content hashes, so both directories must hold the same files.
        serial = run_table2(["compress"], EvaluationOptions(trace_length=TL))
        plan = FaultPlan(specs=(FaultSpec(kind="worker_kill"),))
        listings = []
        for name in ("cA", "cB"):
            cache_dir = tmp_path / name
            degraded = run_table2(
                ["compress"],
                EvaluationOptions(
                    trace_length=TL,
                    jobs=2,
                    task_timeout=60.0,
                    redispatch_budget=0,
                    worker_fault_plan=plan,
                    cache=ArtifactCache(cache_dir),
                    heartbeat_interval=None,
                ),
            )
            assert degraded.failures == []
            for part in ("single", "dual_none", "dual_local"):
                assert getattr(
                    degraded.rows[0].evaluation, part
                ).stats.as_dict() == getattr(
                    serial.rows[0].evaluation, part
                ).stats.as_dict()
            listings.append(sorted(p.name for p in cache_dir.glob("*.pkl")))
        assert listings[0] and listings[0] == listings[1]

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
    def test_default_timeout_scales_with_trace_length(self):
        assert default_task_timeout(0) == MIN_TASK_TIMEOUT
        assert default_task_timeout(120_000) > MIN_TASK_TIMEOUT
        assert default_task_timeout(10 ** 6) > default_task_timeout(10 ** 5)

    def test_default_timeout_scales_with_evaluation_cost(self):
        # The deadline must track what actually drives simulation cost,
        # not just the trace length.
        tl = 10 ** 6
        plain = default_task_timeout(tl)
        checked = default_task_timeout(tl, self_check=True)
        assert checked > plain  # self-check multiplies per-cycle work
        # The floor still applies however cheap the options make a task.
        assert default_task_timeout(0, self_check=True) == MIN_TASK_TIMEOUT

    @pytest.mark.parametrize("trace_length", [0, 1, 7_999, 8_000, 120_000, 10 ** 6])
    def test_default_timeout_is_the_reference_sized_budget(self, trace_length):
        # 10 s plus BASE_SECONDS_PER_INSTRUCTION per instruction, floored
        # at MIN_TASK_TIMEOUT: the budget sized on the reference model,
        # a wide margin for the batched one.
        assert default_task_timeout(trace_length) == max(
            MIN_TASK_TIMEOUT, 10.0 + trace_length * BASE_SECONDS_PER_INSTRUCTION
        )

    def test_constructor_derives_timeout_from_options(self):
        fast = SupervisedPoolExecutor(_echo_task, 1, trace_length=10 ** 6)
        slow = SupervisedPoolExecutor(
            _echo_task, 1, trace_length=10 ** 6, self_check=True
        )
        try:
            assert fast.task_timeout == default_task_timeout(10 ** 6)
            assert fast.task_timeout < slow.task_timeout
        finally:
            fast.close()
            slow.close()


class TestLedgerContract:
    def test_duplicate_submit_rejected(self):
        with SupervisedPoolExecutor(_echo_task, jobs=1, task_timeout=30.0) as sup:
            sup.submit(SweepTask(benchmark="x", part="single"))
            with pytest.raises(ConfigError, match="already submitted"):
                sup.submit(SweepTask(benchmark="x", part="single"))

    def test_invalid_ledger_knobs_rejected(self):
        with pytest.raises(ConfigError, match="task_timeout"):
            SupervisedPoolExecutor(_echo_task, jobs=1, task_timeout=0.0)
        with pytest.raises(ConfigError, match="budget"):
            SupervisedPoolExecutor(
                _echo_task, jobs=1, task_timeout=1.0, redispatch_budget=-1
            )


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
        assert sup.affinity_steals == 0

    def test_short_queue_is_plain_fifo(self):
        # Three tasks for two workers: holding a:dual_none back would put
        # it behind a:single on the critical path, so it goes out in FIFO
        # order, ahead of b:single, to the worker a:single left free.
        tasks = [*_native_pair(single_s=1.0), SweepTask("b", "single", 0.0)]
        sup = SupervisedPoolExecutor(_pid_after_sleep, jobs=2, task_timeout=30.0)
        done = _drain_in_order(sup, tasks)
        assert [r.task.token for r in done] == ["a:dual_none", "b:single", "a:single"]
        assert done[0].value != done[2].value
        assert sup.affinity_steals == 1

    def test_no_worker_idles_while_work_is_ready(self):
        # Every task shares one key, and its holder is busy with the
        # first: the other worker takes the rest rather than idle.
        tasks = [SweepTask("a", "p0", 1.0, affinity="a")]
        tasks += [SweepTask("a", f"p{i}", 0.0, affinity="a") for i in range(1, 5)]
        sup = SupervisedPoolExecutor(_pid_after_sleep, jobs=2, task_timeout=30.0)
        *rest, first = _drain_in_order(sup, tasks)
        assert first.task.part == "p0"
        assert all(result.value != first.value for result in rest)
        assert sup.affinity_steals == 4

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
        assert sup.affinity_steals == 0
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


class TestCancel:
    def test_cancel_reports_undelivered_tasks(self):
        sup = SupervisedPoolExecutor(_echo_task, jobs=1, task_timeout=30.0)
        for task in _tasks(3):
            sup.submit(task)
        cancelled = sup.cancel()
        assert cancelled == 3
        assert sup.outstanding == 0
        sup.close()

    def test_cancel_while_requeued_task_is_inside_backoff(self, monkeypatch):
        # ISSUE 8 satellite: a worker_kill puts its task into the
        # pending deque with a far-future not_before; cancel() must drop
        # the waiting task, zero outstanding, and orphan no processes.
        plan = FaultPlan(
            specs=(FaultSpec(kind="worker_kill", benchmark="b0",
                             clear_after=1),)
        )
        monkeypatch.setattr(executor_mod, "REDISPATCH_BASE_DELAY_S", 120.0)
        monkeypatch.setattr(executor_mod, "REDISPATCH_MAX_DELAY_S", 120.0)
        sup = SupervisedPoolExecutor(
            _echo_task, jobs=1, task_timeout=30.0, worker_fault_plan=plan
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
