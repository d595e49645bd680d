"""Fitness evaluation for design points: cycle count x cycle time.

A design point is scored against the paper's own yardstick (Section 5):
IPC alone rewards the monolithic machine, so every trial reports both

* ``rel_cycles`` — the geometric-mean ratio of the point's simulated
  cycle count to the 1x8-way baseline's, over the selected workloads
  (< 1.0 means the point retires the work in fewer cycles);
* ``cycle_time_ps`` — the Palacharla/Jouppi/Smith delay-model cycle
  time of the point's *slowest* cluster (the clock is set by the worst
  window/regfile/bypass on the die);

and the scalar ``speedup`` — geometric-mean wall-clock speedup over the
baseline, ``(T_baseline / T_point) / rel_cycles`` — which is what the
evolutionary driver maximizes.  The Pareto frontier
(:mod:`repro.gym.pareto`) minimizes the (rel_cycles, cycle_time_ps)
pair, so both the IPC-greedy and the clock-greedy corners survive.

Simulation rides the Table 2 harness
(:func:`repro.experiments.harness.evaluate_workload_part`): by default
each point runs the **native binary** (part ``dual_none`` — the
cluster-oblivious compile), so every design point in a search shares
one compile and one trace per workload through the artifact cache;
``part="dual_local"`` instead reschedules the binary with the local
scheduler generalized to the point's cluster count.  Everything is
seeded and deterministic — the same settings and point produce the same
:class:`TrialResult` bit-for-bit, which is what makes search journals
resumable and trajectories byte-identical across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from repro.core.partition.local import LocalScheduler
from repro.errors import ConfigError
from repro.experiments.harness import EvaluationOptions, evaluate_workload_part
from repro.gym.space import DesignPoint, PAPER_SINGLE_POINT
from repro.perf.cache import ArtifactCache
from repro.perf.fingerprint import fingerprint
from repro.timing.palacharla import TECHNOLOGIES, MachineShape, cycle_time
from repro.uarch.config import ProcessorConfig, single_cluster_config
from repro.workloads.spec92 import SPEC92, build_benchmark, check_benchmark

#: The six SPEC92 stand-ins, in registry order.
ALL_BENCHMARKS: tuple[str, ...] = tuple(SPEC92)


@dataclass(frozen=True)
class GymSettings:
    """Everything (besides the point itself) that determines a trial's value.

    Frozen and picklable: settings travel into worker processes and are
    folded into journal fingerprints, so a resumed search only reuses
    trials evaluated under identical settings.
    """

    benchmarks: tuple[str, ...] = ALL_BENCHMARKS
    #: Instructions simulated per workload.  Searches default far below
    #: the Table 2 length — fitness ranks points, it does not publish
    #: tables — and the successive-halving driver raises it per rung.
    trace_length: int = 12_000
    trace_seed: int = 7
    #: Process generation for the cycle-time model.
    tech: str = "0.35um"
    #: ``dual_none`` simulates the shared native binary; ``dual_local``
    #: reschedules per point with the N-cluster local scheduler.
    part: str = "dual_none"
    self_check: bool = False
    cycle_budget: int = 0

    def __post_init__(self) -> None:
        if self.tech not in TECHNOLOGIES:
            raise ConfigError(
                f"unknown technology {self.tech!r}; choose from "
                f"{sorted(TECHNOLOGIES)}",
                tech=self.tech,
            )
        if self.part not in ("dual_none", "dual_local"):
            raise ConfigError(
                f"gym part must be 'dual_none' or 'dual_local', got {self.part!r}",
                part=self.part,
            )
        if not self.benchmarks:
            raise ConfigError("gym settings name no benchmarks")
        for name in self.benchmarks:
            check_benchmark(name)

    @property
    def settings_fingerprint(self) -> str:
        """Identity for journal rows (value-determining fields only)."""
        return fingerprint(
            (
                "gym-settings/v1",
                self.benchmarks,
                self.trace_length,
                self.trace_seed,
                self.tech,
                self.part,
                self.cycle_budget,
            )
        )

    def evaluation_options(self) -> EvaluationOptions:
        return EvaluationOptions(
            trace_length=self.trace_length,
            trace_seed=self.trace_seed,
            self_check=self.self_check,
            cycle_budget=self.cycle_budget,
        )


def config_cycle_time(config: ProcessorConfig, tech: str) -> float:
    """Cycle time (ps) of a machine: its slowest cluster sets the clock."""
    technology = TECHNOLOGIES[tech]
    return max(
        cycle_time(
            MachineShape(
                issue_width=cluster.issue.total,
                window_entries=cluster.dispatch_queue_entries,
                physical_registers=max(
                    cluster.int_physical_registers, cluster.fp_physical_registers
                ),
            ),
            technology,
        )
        for cluster in config.clusters
    )


def geomean(values) -> float:
    values = list(values)
    if not values:
        raise ConfigError("geometric mean of an empty sequence")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class TrialResult:
    """One evaluated design point (JSON-native; journal/trajectory payload)."""

    point: DesignPoint
    #: benchmark -> simulated cycles on this point's machine.
    cycles: Mapping[str, int]
    #: geomean(point cycles / baseline cycles); < 1.0 beats the 1x8 IPC.
    rel_cycles: float
    #: Palacharla cycle time of the slowest cluster (ps).
    cycle_time_ps: float
    #: geomean wall-clock speedup over the 1x8 baseline (> 1.0 is faster).
    speedup: float

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.point.as_dict())

    def as_dict(self) -> dict:
        return {
            "point": self.point.as_dict(),
            "slug": self.point.slug,
            "cycles": dict(sorted(self.cycles.items())),
            "rel_cycles": round(self.rel_cycles, 9),
            "cycle_time_ps": round(self.cycle_time_ps, 6),
            "speedup": round(self.speedup, 9),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TrialResult":
        return cls(
            point=DesignPoint.from_dict(payload["point"]),
            cycles={k: int(v) for k, v in payload["cycles"].items()},
            rel_cycles=float(payload["rel_cycles"]),
            cycle_time_ps=float(payload["cycle_time_ps"]),
            speedup=float(payload["speedup"]),
        )


@dataclass(frozen=True)
class Baseline:
    """The 1x8-way yardstick every trial is normalized against."""

    cycles: Mapping[str, int]
    cycle_time_ps: float

    def as_dict(self) -> dict:
        return {
            "cycles": dict(sorted(self.cycles.items())),
            "cycle_time_ps": round(self.cycle_time_ps, 6),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Baseline":
        return cls(
            cycles={k: int(v) for k, v in payload["cycles"].items()},
            cycle_time_ps=float(payload["cycle_time_ps"]),
        )


def compute_baseline(
    settings: GymSettings, cache: Optional[ArtifactCache] = None
) -> Baseline:
    """Simulate the paper's 1x8-way machine on every selected workload."""
    cache = cache if cache is not None else ArtifactCache()
    options = settings.evaluation_options()
    cycles: dict[str, int] = {}
    for name in settings.benchmarks:
        outcome = evaluate_workload_part(build_benchmark(name), "single", options, cache)
        cycles[name] = outcome.sim.cycles
    baseline = Baseline(
        cycles=cycles,
        cycle_time_ps=config_cycle_time(single_cluster_config(), settings.tech),
    )
    # Canonicalize through the payload encoding: a baseline replayed from
    # a journal or shipped to a worker is rounded, so rounding here too
    # keeps every path (serial, --jobs, --resume) numerically identical.
    return Baseline.from_dict(baseline.as_dict())


def evaluate_point(
    point: DesignPoint,
    settings: GymSettings,
    baseline: Baseline,
    cache: Optional[ArtifactCache] = None,
) -> TrialResult:
    """Score one feasible design point against the baseline."""
    cache = cache if cache is not None else ArtifactCache()
    config = point.to_config()
    assignment = point.assignment()
    part = settings.part
    if point.num_clusters == 1:
        # Nothing to partition on a monolithic point; the native binary
        # is the rescheduled binary.
        part = "dual_none"
    options = replace(
        settings.evaluation_options(),
        dual_config=config,
        dual_assignment=assignment,
        partitioner=(
            LocalScheduler(num_clusters=point.num_clusters)
            if part == "dual_local"
            else None
        ),
    )
    cycles: dict[str, int] = {}
    for name in settings.benchmarks:
        outcome = evaluate_workload_part(build_benchmark(name), part, options, cache)
        cycles[name] = outcome.sim.cycles
    rel = geomean(cycles[b] / baseline.cycles[b] for b in settings.benchmarks)
    time_ps = config_cycle_time(config, settings.tech)
    speedup = (baseline.cycle_time_ps / time_ps) / rel
    result = TrialResult(
        point=point,
        cycles=cycles,
        rel_cycles=rel,
        cycle_time_ps=time_ps,
        speedup=speedup,
    )
    # Same canonicalization as compute_baseline: fresh trials carry the
    # exact floats a journal replay or worker round-trip would.
    return TrialResult.from_dict(result.as_dict())


def trial_key(point: DesignPoint, settings: GymSettings) -> str:
    """Journal key for one (point, rung) evaluation."""
    return f"gym:{point.slug}:L{settings.trace_length}"


def trial_fingerprint(point: DesignPoint, settings: GymSettings) -> str:
    """Journal fingerprint: the trial's full value-determining identity."""
    return fingerprint(
        ("gym-trial/v1", settings.settings_fingerprint, point.as_dict())
    )


#: The paper's single-cluster machine as a gym baseline sanity check:
#: evaluating PAPER_SINGLE_POINT must reproduce the baseline exactly
#: (rel_cycles == speedup == 1.0); asserted in tests/gym/test_fitness.py.
BASELINE_POINT = PAPER_SINGLE_POINT
