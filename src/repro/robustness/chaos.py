"""Seeded chaos soak harness: prove the resilience story under fire.

``repro chaos`` runs a sequence of Table 2 sweeps, each under a
*randomized but seeded* fault-injection schedule (a
:class:`~repro.robustness.faultinject.FaultPlan` drawn from a
per-round PRNG), and asserts the orchestration contract end to end:

* every induced failure is either retried to success (transient faults
  clear between attempts) or degrades into a
  :class:`~repro.experiments.harness.BenchmarkFailure` — the sweep
  itself never dies;
* every unrecoverable failure carries a replay bundle on disk, and
  replaying that bundle reproduces the *same* typed error (type and
  message) — verified by actually replaying each one;
* every round's journal is well-formed and every journaled row is
  loadable.

The verdict is a :class:`HealthReport` (JSON on disk, formatted text on
stdout) whose :attr:`~HealthReport.healthy` flag drives the CLI exit
code: ``0`` healthy, ``5`` violations found.  The same seed always
yields the same fault schedules, so a red chaos run in CI is locally
reproducible with one flag.

Speed notes: chaos runs use short traces, a zero-delay retry policy
(determinism comes from the schedule, not wall-clock sleeping), and an
explicit watchdog cycle budget sized to the trace — a fault that wedges
the simulator costs milliseconds, not a watchdog-default eternity.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError
from repro.robustness.atomicio import atomic_write_json
from repro.robustness.faultinject import (
    RUNTIME_FAULT_KINDS,
    TRACE_FAULT_KINDS,
    WORKER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
)
from repro.robustness.retry import RetryPolicy

#: Bump when the health-report layout changes incompatibly.
HEALTH_SCHEMA = 1

#: Parts an evaluation sweeps (mirrors harness.PARTS; imported lazily
#: there to keep this module importable without the experiments layer).
_PARTS = ("single", "dual_none", "dual_local")


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs for one chaos soak.

    The defaults are CI-smoke sized (a couple of benchmarks, short
    traces); a longer soak just raises ``rounds`` / ``trace_length``.
    """

    seed: int = 0
    rounds: int = 3
    benchmarks: tuple[str, ...] = ("compress", "ora")
    trace_length: int = 1000
    #: Worker processes per sweep (chaos exercises the same ``--jobs``
    #: machinery the real sweeps use).
    jobs: int = 1
    #: Fault specs drawn per round (1..max, inclusive).
    max_faults: int = 2
    #: Retry attempts granted per evaluation part.
    max_attempts: int = 3
    #: Inject executor-level worker faults (worker_kill / worker_stall /
    #: worker_partition) against the supervised executor instead of
    #: simulation-level faults.  Worker-fault rounds assert *bit
    #: identity* to a serial reference — a lost worker must not change a
    #: single stat — plus the usual journal-consistency contract.
    worker_faults: bool = False

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"chaos rounds must be >= 1, got {self.rounds}")
        if self.max_faults < 1:
            raise ConfigError(
                f"chaos max_faults must be >= 1, got {self.max_faults}"
            )
        if self.trace_length < 100:
            raise ConfigError(
                f"chaos trace_length must be >= 100, got {self.trace_length}"
            )
        if not self.benchmarks:
            raise ConfigError("chaos needs at least one benchmark")


def _round_rng(
    seed: int, round_index: int, salt: str = "chaos"
) -> random.Random:
    digest = hashlib.sha256(f"{salt}|{seed}|{round_index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_fault_plan(
    rng: random.Random,
    benchmarks: tuple[str, ...],
    trace_length: int,
    max_faults: int,
) -> FaultPlan:
    """Draw a seeded fault schedule for one chaos round.

    Faults target a random benchmark and (sometimes) a specific
    evaluation part, fire at a random cycle inside the run, and are
    transient (``clear_after`` 1–2) or persistent with equal-ish odds —
    so every round exercises both the retry path and the
    degrade-with-bundle path.
    """
    specs = []
    for _ in range(rng.randint(1, max_faults)):
        kind = rng.choice(RUNTIME_FAULT_KINDS + TRACE_FAULT_KINDS)
        if kind in TRACE_FAULT_KINDS:
            at = rng.randint(trace_length // 4, max(2, trace_length - 2))
        else:
            at = rng.randint(50, trace_length * 4)
        specs.append(
            FaultSpec(
                kind=kind,
                benchmark=rng.choice(benchmarks),
                part=rng.choice((None,) + _PARTS),
                at_cycle=at,
                cluster=rng.randint(0, 1),
                buffer=rng.choice(("operand", "duplicate")),
                clear_after=rng.choice((1, 2, None)),
            )
        )
    return FaultPlan(specs=tuple(specs))


def random_worker_fault_plan(
    rng: random.Random,
    benchmarks: tuple[str, ...],
    max_faults: int,
) -> FaultPlan:
    """Draw a seeded executor-level fault schedule for one worker round.

    Kinds cover the three ways a sweep loses work: a killed worker
    (SIGKILL at task pickup), a wedged worker (stalls until the deadline
    puts it down), and a partitioned worker (computes the result, then
    drops it).  Mostly transient (``clear_after=1``: the re-dispatch
    goes through clean), occasionally persistent (``None``: the task
    keeps dying until the circuit breaker degrades the sweep to serial)
    — both paths must end bit-identical to the serial reference.
    """
    specs = []
    for _ in range(rng.randint(1, max_faults)):
        specs.append(
            FaultSpec(
                kind=rng.choice(WORKER_FAULT_KINDS),
                benchmark=rng.choice(benchmarks),
                part=rng.choice((None,) + _PARTS),
                clear_after=rng.choice((1, 1, 2, None)),
            )
        )
    return FaultPlan(specs=tuple(specs))


@dataclass
class RoundReport:
    """What one chaos round did and whether the contract held."""

    round_index: int
    fault_plan: dict
    completed_rows: int
    failed_rows: int
    #: Rows that needed more than one attempt on some part and still
    #: completed — the retry policy visibly earning its keep.
    retried_to_success: int
    #: Bundles written for failed rows, all verified by replay.
    bundles_verified: int
    elapsed_s: float
    #: Contract violations ("" when none): failures without bundles,
    #: bundles that did not reproduce, unloadable journal rows.
    violations: list[str] = field(default_factory=list)
    #: Which harness produced the round: ``"fault-injection"``
    #: (simulation-level faults) or ``"worker-faults"`` (executor-level).
    mode: str = "fault-injection"

    @property
    def healthy(self) -> bool:
        return not self.violations


@dataclass
class HealthReport:
    """The chaos soak's final verdict."""

    seed: int
    rounds: list[RoundReport]
    elapsed_s: float
    #: Which harness produced the soak: ``"fault-injection"`` or
    #: ``"worker-faults"``.
    mode: str = "fault-injection"
    #: The full :class:`ChaosConfig` as primitives.  Together with
    #: ``seed`` (and each round's recorded fault plan) this makes a
    #: failing round reproducible from the report alone: rebuild
    #: ``ChaosConfig(**config)`` and rerun — the same seeded PRNG draws
    #: the same fault schedules.
    config: dict = field(default_factory=dict)
    schema: int = HEALTH_SCHEMA

    @property
    def healthy(self) -> bool:
        return all(r.healthy for r in self.rounds)

    @property
    def exit_code(self) -> int:
        return 0 if self.healthy else 5

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "mode": self.mode,
            "config": self.config,
            "healthy": self.healthy,
            "elapsed_s": round(self.elapsed_s, 3),
            "rounds": [asdict(r) for r in self.rounds],
        }

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        atomic_write_json(path, self.as_dict())
        return path

    def format(self) -> str:
        verdict = "HEALTHY" if self.healthy else "UNHEALTHY"
        lines = [
            f"chaos soak: seed={self.seed} rounds={len(self.rounds)} "
            f"elapsed={self.elapsed_s:.1f}s -> {verdict}",
            f"{'round':>5} {'faults':>6} {'rows':>5} {'failed':>6} "
            f"{'retried':>7} {'bundles':>7}  violations",
        ]
        for r in self.rounds:
            n_faults = len(r.fault_plan.get("specs", ()))
            lines.append(
                f"{r.round_index:>5} {n_faults:>6} {r.completed_rows:>5} "
                f"{r.failed_rows:>6} {r.retried_to_success:>7} "
                f"{r.bundles_verified:>7}  "
                + ("; ".join(r.violations) if r.violations else "-")
            )
        return "\n".join(lines)


def _run_round(
    config: ChaosConfig, round_index: int, run_dir: Path
) -> RoundReport:
    from repro.experiments.harness import EvaluationOptions
    from repro.experiments.table2 import run_table2
    from repro.robustness.journal import RunJournal
    from repro.robustness.replay import replay_file

    rng = _round_rng(config.seed, round_index)
    plan = random_fault_plan(
        rng, config.benchmarks, config.trace_length, config.max_faults
    )
    options = EvaluationOptions(
        trace_length=config.trace_length,
        self_check=True,
        # A wedged simulation must die at watchdog speed, not default
        # budget speed: chaos replays failures, so a generous budget
        # would be paid several times over.
        cycle_budget=config.trace_length * 30 + 10_000,
        jobs=config.jobs,
        retry=RetryPolicy(
            max_attempts=config.max_attempts,
            base_delay=0.0,
            seed=config.seed,
        ),
        fault_plan=plan,
    )
    round_dir = run_dir / f"round-{round_index:02d}"
    start = time.perf_counter()
    journal = RunJournal(round_dir)
    violations: list[str] = []
    try:
        result = run_table2(list(config.benchmarks), options, journal=journal)
    finally:
        journal.close()

    # Contract 1: the sweep completed and accounted for every benchmark.
    accounted = {r.benchmark for r in result.rows}
    accounted.update(f.benchmark for f in result.failures)
    for name in config.benchmarks:
        if name not in accounted:
            violations.append(f"{name}: row neither completed nor degraded")

    # Contract 2: every unrecoverable failure carries a bundle that
    # replays to the same typed error.
    bundles_verified = 0
    for failure in result.failures:
        bundle = failure.context.get("replay_bundle")
        if not bundle:
            violations.append(
                f"{failure.benchmark}: degraded without a replay bundle"
            )
            continue
        verdict = replay_file(bundle)
        if verdict.reproduced:
            bundles_verified += 1
        else:
            violations.append(
                f"{failure.benchmark}: bundle did not reproduce "
                f"(expected {verdict.bundle.error_type}: "
                f"{verdict.bundle.error_message!r}, got "
                f"{verdict.actual_type}: {verdict.actual_message!r})"
            )

    # Contract 3: the journal survived the round — every completed row
    # is re-loadable (what a later --resume would lean on).
    reopened = RunJournal(round_dir)
    retried = 0
    try:
        for entry in reopened.entries():
            if entry.status != "completed":
                continue
            if reopened.load_artifact(entry) is None:
                violations.append(f"{entry.key}: journaled row unloadable")
            if entry.attempts > len(_PARTS):
                retried += 1
    finally:
        reopened.close()

    return RoundReport(
        round_index=round_index,
        fault_plan=plan.as_dict(),
        completed_rows=len(result.rows),
        failed_rows=len(result.failures),
        retried_to_success=retried,
        bundles_verified=bundles_verified,
        elapsed_s=round(time.perf_counter() - start, 3),
        violations=violations,
    )


def _stats_fingerprints(result) -> dict[str, dict[str, str]]:
    """Per-benchmark, per-part ``stats_fingerprint`` map of a Table 2 run
    (the bit-identity currency of the executor chaos contracts)."""
    from repro.perf.fingerprint import fingerprint

    return {
        row.benchmark: {
            part: fingerprint(getattr(row.evaluation, part).stats.as_dict())
            for part in _PARTS
        }
        for row in result.rows
    }


def _run_worker_round(
    config: ChaosConfig, round_index: int, run_dir: Path
) -> RoundReport:
    """One worker-fault round: the supervised executor under a seeded
    worker-fault plan vs serial truth.

    The contract is stricter than the fault-injection rounds': worker
    faults happen *outside* the simulation, so nothing may degrade —
    every benchmark must complete, with every stat bit-identical
    (``stats_fingerprint``) to a serial reference sweep, and the round's
    shard journal must reload with no torn line and every row loadable.
    """
    from repro.experiments.harness import EvaluationOptions
    from repro.experiments.table2 import run_table2
    from repro.robustness.journal import RunJournal

    rng = _round_rng(config.seed, round_index, salt="chaos-worker")
    plan = random_worker_fault_plan(rng, config.benchmarks, config.max_faults)
    round_dir = run_dir / f"round-{round_index:02d}"
    round_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    violations: list[str] = []

    def report(completed_rows: int, failed_rows: int) -> RoundReport:
        return RoundReport(
            round_index=round_index,
            fault_plan=plan.as_dict(),
            completed_rows=completed_rows,
            failed_rows=failed_rows,
            retried_to_success=0,
            bundles_verified=0,
            elapsed_s=round(time.perf_counter() - start, 3),
            violations=violations,
            mode="worker-faults",
        )

    base = dict(
        trace_length=config.trace_length,
        cycle_budget=config.trace_length * 30 + 10_000,
    )
    reference = run_table2(list(config.benchmarks), EvaluationOptions(**base))
    if reference.failures:  # pragma: no cover - benchmarks are healthy
        violations.append("serial reference run failed; cannot judge round")
        return report(0, len(reference.failures))

    options = EvaluationOptions(
        **base,
        jobs=max(2, config.jobs),
        # Generous for a healthy task, short enough that a stalled or
        # partitioned worker costs seconds, not a CI-visible hang.
        task_timeout=max(5.0, config.trace_length / 100.0),
        redispatch_budget=2,
        worker_fault_plan=plan,
    )
    shard = f"chaos-{round_index:02d}"
    journal = RunJournal(round_dir, shard=shard)
    try:
        result = run_table2(list(config.benchmarks), options, journal=journal)
    finally:
        journal.close()

    # Contract 1: worker faults never leak into row outcomes — every
    # benchmark completes, none degrades.
    for failure in result.failures:
        violations.append(
            f"{failure.benchmark}: worker fault leaked into a row failure "
            f"({failure.error_type}: {failure.message})"
        )
    completed = {row.benchmark for row in result.rows}
    for name in config.benchmarks:
        if name not in completed and not any(
            f.benchmark == name for f in result.failures
        ):
            violations.append(f"{name}: row lost by the supervised sweep")

    # Contract 2: bit identity — every stat of every part matches the
    # serial reference exactly.
    want = _stats_fingerprints(reference)
    got = _stats_fingerprints(result)
    for name in sorted(want):
        if name not in got:
            continue  # already reported above
        for part in _PARTS:
            if want[name][part] != got[name][part]:
                violations.append(
                    f"{name}/{part}: stats fingerprint diverged from the "
                    "serial reference under worker faults"
                )

    # Contract 3: the shard journal survived — only the sweep parent
    # writes it, so a killed worker cannot tear it — and every completed
    # row is loadable.
    reopened = RunJournal(round_dir, shard=shard)
    try:
        if reopened.skipped_lines:
            violations.append(
                f"shard journal has {reopened.skipped_lines} torn line(s)"
            )
        for entry in reopened.entries():
            if entry.status == "completed" and reopened.load_artifact(entry) is None:
                violations.append(f"{entry.key}: journaled row unloadable")
    finally:
        reopened.close()

    return report(len(result.rows), len(result.failures))


def run_chaos(
    config: Optional[ChaosConfig] = None,
    run_dir: Union[str, Path, None] = None,
) -> HealthReport:
    """Run the chaos soak; returns the :class:`HealthReport`.

    ``run_dir`` keeps the per-round journals, bundles, and the final
    ``health.json`` for post-mortems (CI uploads it on failure); when
    omitted everything lives in a temporary directory that is discarded
    after the verdict — the bundles have already been replay-verified by
    then.
    """
    config = config or ChaosConfig()
    if config.worker_faults:
        round_fn, mode = _run_worker_round, "worker-faults"
    else:
        round_fn, mode = _run_round, "fault-injection"
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if run_dir is None:
            root = Path(
                stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-chaos-"))
            )
        else:
            root = Path(run_dir)
            root.mkdir(parents=True, exist_ok=True)
        rounds = [round_fn(config, i, root) for i in range(config.rounds)]
        report = HealthReport(
            seed=config.seed,
            rounds=rounds,
            elapsed_s=time.perf_counter() - start,
            mode=mode,
            config=asdict(config),
        )
    if run_dir is not None:
        report.save(root / "health.json")
    return report


__all__ = [
    "HEALTH_SCHEMA",
    "ChaosConfig",
    "HealthReport",
    "RoundReport",
    "random_fault_plan",
    "random_worker_fault_plan",
    "run_chaos",
]
