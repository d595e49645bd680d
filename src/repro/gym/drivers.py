"""Search drivers over the design space.

Four drivers, one contract:

* ``random`` — seeded uniform sampling of the feasible region;
* ``grid`` — the symmetric lattice of :meth:`DesignSpace.grid`;
* ``evolutionary`` — (mu + lambda)-style: elitism, tournament selection,
  crossover, mutation, all drawn from one seeded ``random.Random``;
* ``halving`` — successive halving: a large seeded population triaged on
  short traces, the top ``1/eta`` promoted to each longer-trace rung,
  so simulation budget concentrates on promising machines.

The contract (DESIGN.md Section 16): same spec + same settings ⇒ the
same trials in the same order with the same values, hence byte-identical
trajectory and frontier files.  Every trial is journaled
(:mod:`repro.robustness.journal`) before the search moves on, keyed by
``(point slug, rung trace length)`` and fingerprinted over the point and
every value-determining setting — a search killed mid-run and resumed
with ``--resume`` replays completed trials from the journal and lands on
the *same bytes* as an uninterrupted run.  Each batch runs through
:func:`repro.perf.parallel.run_sweep`, which journals every trial the
moment it finishes (an interrupted ``--jobs`` batch keeps its finished
trials) and fans out to the supervised executor for ``jobs != 1``;
every path returns the same JSON-native payloads the journal stores, so
the parallel path cannot drift from the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import random

from repro.errors import ConfigError
from repro.gym.fitness import (
    Baseline,
    GymSettings,
    TrialResult,
    compute_baseline,
    evaluate_point,
    trial_fingerprint,
    trial_key,
)
from repro.gym.pareto import pareto_frontier
from repro.gym.space import DesignPoint, DesignSpace
from repro.obs.metrics import MetricsRegistry
from repro.perf.cache import ArtifactCache
from repro.perf.parallel import run_sweep
from repro.robustness.journal import RunJournal

DRIVERS = ("random", "grid", "evolutionary", "halving")

#: Shortest trace a successive-halving rung may use.
MIN_RUNG_TRACE = 2_000


@dataclass(frozen=True)
class SearchSpec:
    """What to search and how hard."""

    driver: str = "random"
    seed: int = 42
    #: Total samples (random) / initial population (halving).
    budget: int = 16
    #: Evolutionary population per generation.
    population: int = 8
    generations: int = 4
    #: Parents copied unchanged into the next generation.
    elite: int = 2
    #: Tournament size for parent selection.
    tournament: int = 3
    #: Offspring mutation probability (crossover children are always
    #: produced; each is additionally mutated with this probability).
    mutation_rate: float = 0.5
    #: Successive-halving promotion factor (top ``1/eta`` survive a rung).
    eta: int = 3

    def __post_init__(self) -> None:
        if self.driver not in DRIVERS:
            raise ConfigError(
                f"unknown search driver {self.driver!r}; choose from {DRIVERS}",
                driver=self.driver,
            )
        for name in ("budget", "population", "generations", "tournament"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"search {name} must be >= 1", field=name, value=getattr(self, name)
                )
        if self.elite < 0 or self.elite > self.population:
            raise ConfigError(
                "elite must be within [0, population]",
                elite=self.elite,
                population=self.population,
            )
        if self.eta < 2:
            raise ConfigError("halving eta must be >= 2", eta=self.eta)
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(
                "mutation_rate must be in [0, 1]", mutation_rate=self.mutation_rate
            )


@dataclass
class SearchResult:
    """Everything a finished search reports."""

    spec: SearchSpec
    settings: GymSettings
    baseline: Baseline
    #: ``(index, generation, trial)`` in evaluation order (all rungs).
    trials: list[tuple[int, int, TrialResult]]
    #: Non-dominated set over full-length trials only.
    frontier: list[TrialResult]
    #: Per-generation fitness summary (obs series; JSON-native).
    fitness_series: list[dict]
    #: Trials replayed from the journal instead of re-simulated.
    journal_hits: int = 0

    @property
    def best(self) -> Optional[TrialResult]:
        """Highest wall-clock speedup (always on the frontier: the
        speedup maximizer minimizes the rel_cycles x cycle_time product,
        which no dominated point can)."""
        return max(
            self.frontier,
            key=lambda t: (t.speedup, t.point.slug),
            default=None,
        )


def _evaluate_trial(item: tuple, cache: Optional[ArtifactCache]) -> dict:
    """One trial as its JSON-native payload (worker-safe).

    Serial, parallel and journal-replayed trials all pass through the
    same payload encoding, so the paths cannot drift.
    """
    point, settings, baseline = item
    return evaluate_point(point, settings, baseline, cache).as_dict()


class _Evaluator:
    """Journal-aware, optionally parallel batch evaluator.

    One instance per search; it owns the trial counter so trajectory
    indices are global across generations and rungs.
    """

    def __init__(
        self,
        settings: GymSettings,
        cache: Optional[ArtifactCache],
        journal: Optional[RunJournal],
        jobs: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        spans=None,
    ) -> None:
        self.settings = settings
        self.cache = cache if cache is not None else ArtifactCache()
        self.journal = journal
        self.jobs = jobs
        self.metrics = metrics or MetricsRegistry()
        self.spans = spans
        self.trials: list[tuple[int, int, TrialResult]] = []
        self.journal_hits = 0
        self._index = 0
        self._baselines: dict[int, Baseline] = {}

    def baseline_for(self, settings: GymSettings) -> Baseline:
        """The 1x8 yardstick at this rung's trace length (journaled).

        Halving rungs simulate shorter traces, so each rung normalizes
        against a baseline of the *same* length — otherwise short-rung
        ``rel_cycles`` would be meaningless noise instead of a ranking.
        """
        baseline = self._baselines.get(settings.trace_length)
        if baseline is None:
            baseline = _baseline_journaled(settings, self.cache, self.journal)
            self._baselines[settings.trace_length] = baseline
        return baseline

    def evaluate(
        self,
        points: list[DesignPoint],
        generation: int,
        settings: Optional[GymSettings] = None,
    ) -> list[TrialResult]:
        """Evaluate a batch in order; journal hits skip simulation."""
        settings = settings or self.settings
        baseline = self.baseline_for(settings)
        fresh = 0

        def count_fresh(index: int, payload: dict) -> None:
            nonlocal fresh
            fresh += 1

        payloads = run_sweep(
            _evaluate_trial,
            [(point, settings, baseline) for point in points],
            self.jobs,
            keys=[
                (trial_key(point, settings), trial_fingerprint(point, settings))
                for point in points
            ],
            journal=self.journal,
            json_journal=True,
            cache=self.cache,
            on_result=count_fresh,
            trace_length=settings.trace_length * len(settings.benchmarks),
            self_check=settings.self_check,
        )
        self.journal_hits += len(points) - fresh
        out = [TrialResult.from_dict(payload) for payload in payloads]
        for trial in out:
            self.trials.append((self._index, generation, trial))
            self._index += 1
        self._record_generation(generation, out)
        self._emit_spans(generation, settings, out)
        return out

    def _emit_spans(
        self, generation: int, settings: GymSettings, trials: list[TrialResult]
    ) -> None:
        """Journal this batch's deterministic spans (DESIGN.md Section 17).

        One ``gym_rung`` span per generation/rung plus a ``gym_trial``
        child per design point, all measured in simulated cycles — a
        content-derived virtual time that replays identically from the
        journal, so a ``--resume``\\ d search emits the same span set as
        an uninterrupted one.
        """
        if self.spans is None or not trials:
            return
        from repro.obs.spans import Span, derive_span_id

        trace_id = self.spans.trace_id
        rung_name = f"gen-{generation}"
        costs = [sum(int(c) for c in t.cycles.values()) for t in trials]
        rung_id = derive_span_id(
            trace_id, "gym_rung", rung_name, settings.trace_length, sum(costs)
        )
        spans = [
            Span(
                trace_id=trace_id,
                span_id=rung_id,
                parent_id=None,
                kind="gym_rung",
                name=rung_name,
                start_u=0,
                end_u=sum(costs),
                attrs={
                    "generation": generation,
                    "trace_length": settings.trace_length,
                    "trials": len(trials),
                },
            )
        ]
        for trial, cost in zip(trials, costs):
            spans.append(
                Span(
                    trace_id=trace_id,
                    span_id=derive_span_id(
                        trace_id,
                        "gym_trial",
                        trial.point.slug,
                        settings.trace_length,
                        cost,
                    ),
                    parent_id=rung_id,
                    kind="gym_trial",
                    name=trial.point.slug,
                    start_u=0,
                    end_u=cost,
                    attrs={
                        "generation": generation,
                        "trace_length": settings.trace_length,
                    },
                )
            )
        self.spans.write_all(spans)

    def _record_generation(self, generation: int, trials: list[TrialResult]) -> None:
        if not trials:
            return
        speedups = [t.speedup for t in trials]
        best = max(speedups)
        mean = sum(speedups) / len(speedups)
        self.metrics.gauge(
            "gym_generation_best_speedup",
            "Best wall-clock speedup in a search generation",
            generation=str(generation),
        ).set(best)
        self.metrics.gauge(
            "gym_generation_mean_speedup",
            "Mean wall-clock speedup in a search generation",
            generation=str(generation),
        ).set(mean)
        self.metrics.counter(
            "gym_trials_total", "Design points evaluated by the search"
        ).inc(len(trials))


def _fitness_entry(generation: int, trials: list[TrialResult]) -> dict:
    speedups = sorted((t.speedup for t in trials), reverse=True)
    return {
        "generation": generation,
        "trials": len(trials),
        "best_speedup": round(speedups[0], 9),
        "mean_speedup": round(sum(speedups) / len(speedups), 9),
    }


def _rank_key(trial: TrialResult) -> tuple:
    """Deterministic fitness order: speedup desc, slug as tiebreak."""
    return (-trial.speedup, trial.point.slug)


# ------------------------------------------------------------------ drivers
def _run_random(
    spec: SearchSpec, space: DesignSpace, evaluator: _Evaluator
) -> list[dict]:
    rng = random.Random(spec.seed)
    points = [space.sample(rng) for _ in range(spec.budget)]
    trials = evaluator.evaluate(points, generation=0)
    return [_fitness_entry(0, trials)]


def _run_grid(
    spec: SearchSpec, space: DesignSpace, evaluator: _Evaluator
) -> list[dict]:
    points = list(space.grid())
    if not points:
        raise ConfigError("design-space grid is empty", space=repr(space))
    trials = evaluator.evaluate(points, generation=0)
    return [_fitness_entry(0, trials)]


def _run_evolutionary(
    spec: SearchSpec, space: DesignSpace, evaluator: _Evaluator
) -> list[dict]:
    rng = random.Random(spec.seed)
    series: list[dict] = []
    population = [space.sample(rng) for _ in range(spec.population)]
    scored = list(zip(population, evaluator.evaluate(population, generation=0)))
    series.append(_fitness_entry(0, [t for _, t in scored]))

    def tournament() -> DesignPoint:
        contenders = [rng.choice(scored) for _ in range(spec.tournament)]
        return min(contenders, key=lambda pair: _rank_key(pair[1]))[0]

    for generation in range(1, spec.generations):
        scored.sort(key=lambda pair: _rank_key(pair[1]))
        next_population = [point for point, _ in scored[: spec.elite]]
        while len(next_population) < spec.population:
            child = space.crossover(tournament(), tournament(), rng)
            if rng.random() < spec.mutation_rate:
                child = space.mutate(child, rng)
            next_population.append(child)
        trials = evaluator.evaluate(next_population, generation=generation)
        scored = list(zip(next_population, trials))
        series.append(_fitness_entry(generation, trials))
    return series


def halving_rungs(settings: GymSettings, spec: SearchSpec) -> list[int]:
    """Trace lengths per rung, shortest first, ending at the full length."""
    lengths = [settings.trace_length]
    population = spec.budget
    while population >= spec.eta and lengths[0] > MIN_RUNG_TRACE:
        lengths.insert(0, max(MIN_RUNG_TRACE, lengths[0] // spec.eta))
        population //= spec.eta
    return lengths


def _run_halving(
    spec: SearchSpec,
    space: DesignSpace,
    evaluator: _Evaluator,
    settings: GymSettings,
) -> list[dict]:
    rng = random.Random(spec.seed)
    survivors = [space.sample(rng) for _ in range(spec.budget)]
    series: list[dict] = []
    rungs = halving_rungs(settings, spec)
    for rung, trace_length in enumerate(rungs):
        rung_settings = replace(settings, trace_length=trace_length)
        trials = evaluator.evaluate(survivors, generation=rung, settings=rung_settings)
        series.append(_fitness_entry(rung, trials))
        if rung < len(rungs) - 1:
            ranked = sorted(zip(survivors, trials), key=lambda pair: _rank_key(pair[1]))
            keep = max(1, len(ranked) // spec.eta)
            survivors = [point for point, _ in ranked[:keep]]
    return series


# -------------------------------------------------------------- entry point
def run_search(
    spec: SearchSpec,
    space: Optional[DesignSpace] = None,
    settings: Optional[GymSettings] = None,
    *,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
    journal: Optional[RunJournal] = None,
    metrics: Optional[MetricsRegistry] = None,
    spans=None,
) -> SearchResult:
    """Run one seeded search end to end.

    The baseline is computed (or replayed from the journal) first; every
    trial then flows through one :class:`_Evaluator`, so trajectory
    indices, journal rows, and obs series all agree.
    """
    space = space or DesignSpace()
    settings = settings or GymSettings()
    cache = cache if cache is not None else ArtifactCache()
    if spans is not None:
        from repro.perf.fingerprint import fingerprint

        spans.trace_id = fingerprint(
            ("gym-trace/v1", fingerprint(spec), settings.settings_fingerprint)
        )[:16]

    evaluator = _Evaluator(settings, cache, journal, jobs, metrics, spans)
    baseline = evaluator.baseline_for(settings)
    if spec.driver == "random":
        series = _run_random(spec, space, evaluator)
    elif spec.driver == "grid":
        series = _run_grid(spec, space, evaluator)
    elif spec.driver == "evolutionary":
        series = _run_evolutionary(spec, space, evaluator)
    else:
        series = _run_halving(spec, space, evaluator, settings)

    # Frontier over full-length trials only: short halving rungs rank
    # survivors but are not comparable to full-trace cycle counts.
    full = [
        trial
        for _, generation, trial in evaluator.trials
        if spec.driver != "halving"
        or generation == len(halving_rungs(settings, spec)) - 1
    ]
    return SearchResult(
        spec=spec,
        settings=settings,
        baseline=baseline,
        trials=evaluator.trials,
        frontier=pareto_frontier(full),
        fitness_series=series,
        journal_hits=evaluator.journal_hits,
    )


def _baseline_journaled(
    settings: GymSettings,
    cache: ArtifactCache,
    journal: Optional[RunJournal],
) -> Baseline:
    key = f"gym:baseline:L{settings.trace_length}"
    fp = settings.settings_fingerprint
    if journal is not None:
        entry = journal.completed(key, fp)
        if entry is not None and entry.payload is not None:
            return Baseline.from_dict(entry.payload)
    baseline = compute_baseline(settings, cache)
    if journal is not None:
        journal.record_completed(key, fp, payload=baseline.as_dict())
    return baseline
