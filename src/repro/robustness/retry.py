"""Seeded, deterministic retry policy for sweep orchestration.

A production-scale sweep runs thousands of benchmark × configuration
evaluations; any one of them can die to a fault that would not recur
(an injected fault that clears, a resource blip, a wedged simulation a
watchdog put down).  The orchestration layer retries those — and *only*
those — with exponential backoff, and gives up immediately on failures
that are provably deterministic (bad configuration, corrupt trace,
compile bugs), because re-running a pure function on the same inputs
can only waste the attempt budget.

Two properties matter more than cleverness:

* **determinism** — the backoff schedule is a pure function of
  ``(policy.seed, token)``; the same seed and run token always produce
  the same delays and the same attempt budget, so a retried sweep is
  exactly reproducible and the chaos harness can assert outcomes.
* **classification** — :func:`classify_error` maps the
  :mod:`repro.errors` hierarchy onto retry/no-retry: configuration,
  trace, and compile errors are permanent (the inputs are wrong);
  simulation-time failures (including watchdog timeouts and invariant
  violations) are transient (the run, not the inputs, went wrong).  An
  error can override the default by carrying ``transient=True/False``
  in its context.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import (
    CompileError,
    ConfigError,
    ReproError,
    SimulationError,
    TraceError,
)

#: Classification labels.
TRANSIENT = "transient"
PERMANENT = "permanent"


def classify_error(error: BaseException) -> str:
    """``TRANSIENT`` (retry-worthy) or ``PERMANENT`` (degrade now).

    The default policy over the typed hierarchy:

    * ``ConfigError`` / ``TraceError`` / ``CompileError`` — permanent:
      deterministic functions of the run's inputs; a retry reruns the
      same failure.
    * ``SimulationError`` (and its watchdog/invariant subclasses) —
      transient: the run itself went wrong, which is exactly what fault
      injection and real-world flakiness look like.
    * anything else — permanent (unknown failures don't earn retries).

    A :class:`~repro.errors.ReproError` carrying ``transient`` in its
    context overrides the type-based default.
    """
    if isinstance(error, ReproError):
        override = error.context.get("transient")
        if override is not None:
            return TRANSIENT if override else PERMANENT
    if isinstance(error, (ConfigError, TraceError, CompileError)):
        return PERMANENT
    if isinstance(error, SimulationError):
        return TRANSIENT
    return PERMANENT


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with bounded, seeded jitter.

    Attempt ``k`` (0-based) that fails transiently sleeps
    ``base_delay * multiplier**k``, capped at ``max_delay``, scaled by a
    jitter factor drawn from ``[1 - jitter, 1 + jitter]`` using a PRNG
    seeded from ``(seed, token)`` — same policy and token, same
    schedule, every time, on every machine.
    """

    #: Total attempt budget per run (1 = no retries).
    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    #: Fractional jitter amplitude in [0, 1].
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                "retry policy needs max_attempts >= 1",
                max_attempts=self.max_attempts,
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                "retry jitter must be within [0, 1]", jitter=self.jitter
            )

    def schedule(self, token: str) -> list[float]:
        """This policy's deterministic delay schedule for ``token``
        (see :func:`backoff_schedule`)."""
        return backoff_schedule(self, token)


def backoff_schedule(policy: RetryPolicy, token: str) -> list[float]:
    """The full delay schedule (seconds) for one run token.

    ``schedule[k]`` is the sleep after failed attempt ``k``; the list has
    ``max_attempts - 1`` entries (the last attempt is never slept after).
    """
    digest = hashlib.sha256(f"{policy.seed}|{token}".encode("utf-8")).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    delays = []
    for attempt in range(policy.max_attempts - 1):
        delay = min(policy.base_delay * policy.multiplier**attempt, policy.max_delay)
        delay *= 1.0 + policy.jitter * (2.0 * rng.random() - 1.0)
        delays.append(max(0.0, delay))
    return delays


@dataclass
class AttemptRecord:
    """One attempt's outcome, for journals and health reports."""

    attempt: int
    error_type: Optional[str] = None
    message: Optional[str] = None
    classification: Optional[str] = None
    delay_s: float = 0.0


@dataclass
class RetryOutcome:
    """The successful value plus the attempt trail that led to it."""

    value: Any
    attempts: list[AttemptRecord] = field(default_factory=list)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1


def run_with_retry(
    fn: Callable[[int], Any],
    policy: Optional[RetryPolicy] = None,
    token: str = "",
    classify: Callable[[BaseException], str] = classify_error,
    sleep: Optional[Callable[[float], None]] = time.sleep,
) -> RetryOutcome:
    """Run ``fn(attempt_index)`` under ``policy``.

    Transient :class:`~repro.errors.ReproError`\\ s are retried up to the
    attempt budget with the token's deterministic backoff schedule;
    permanent ones — and the final transient one — are re-raised with
    ``attempts`` and ``failure_class`` recorded in their context, so the
    degradation path (and any replay bundle) carries the retry history.

    ``policy=None`` means a single attempt (today's non-retrying
    behaviour); ``sleep=None`` skips the actual sleeping while keeping
    the recorded schedule (tests, chaos soak).
    """
    if policy is None:
        policy = RetryPolicy(max_attempts=1)
    delays = backoff_schedule(policy, token)
    attempts: list[AttemptRecord] = []
    for attempt in range(policy.max_attempts):
        try:
            value = fn(attempt)
        except ReproError as error:
            classification = classify(error)
            retryable = (
                classification == TRANSIENT and attempt + 1 < policy.max_attempts
            )
            delay = delays[attempt] if retryable else 0.0
            attempts.append(
                AttemptRecord(
                    attempt=attempt,
                    error_type=type(error).__name__,
                    message=error.message,
                    classification=classification,
                    delay_s=delay,
                )
            )
            if not retryable:
                error.context["attempts"] = attempt + 1
                error.context["failure_class"] = classification
                raise
            if sleep is not None and delay > 0.0:
                sleep(delay)
            continue
        attempts.append(AttemptRecord(attempt=attempt))
        return RetryOutcome(value=value, attempts=attempts)
    raise AssertionError("unreachable: loop always returns or raises")


__all__ = [
    "PERMANENT",
    "TRANSIENT",
    "AttemptRecord",
    "RetryOutcome",
    "RetryPolicy",
    "backoff_schedule",
    "classify_error",
    "run_with_retry",
]
