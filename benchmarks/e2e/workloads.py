"""The benchmark's four workloads, their inputs, and their correctness checks.

Each workload is built from the seed alone (it is every trace's
``trace_seed``) and driven only through the repro package's public entry points:
the ``SPEC92``/``KERNELS`` registries, ``evaluate_workload_part``,
``run_table2`` and ``gym.drivers.run_search``.  Module attributes are
looked up at call time, so a tracer installed around a run sees every
call.

Why these four (one workload exercises a mechanism, another bypasses it):

* ``table2-compile`` — the Table 2 sweep on 5k traces, serial.  gcc1's
  compile (live-range webs) dominates; this is where a compiler change
  shows.  Compile time does not shrink with the trace, so one rep takes
  ~20 s; 5k rather than 10k traces keeps a held-out seed's serial
  reference run of ``table2-jobs2`` inside one run's time budget.
* ``kernels-sim`` — four small kernels on 8k traces, serial.  Simulation
  dominates and compiling is ~2%, so engine/uarch changes show and
  compiler changes must not.
* ``table2-jobs2`` — the same inputs as ``table2-compile`` through
  ``run_table2(jobs=2)``: only the orchestration differs.
* ``explore-jobs2`` — a random design-space search over 16 machines of
  1-4 clusters with two workers (``perf.parallel.parallel_map``): the
  other fan-out path, N-cluster distribution, and compile reuse through the
  artifact cache (each process compiles the three native binaries once
  and every trial it runs reuses them).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Optional

PARTS = ("single", "dual_none", "dual_local")


@dataclass(frozen=True)
class Size:
    trace_length: int
    benchmarks: tuple[str, ...] = ()
    budget: int = 0


@dataclass(frozen=True)
class WorkloadDef:
    name: str
    kind: str  # "table2" | "kernels" | "explore"
    jobs: int
    full: Size
    quick: Size
    #: Workloads with identical inputs share one golden file.
    golden_key: str

    def size(self, quick: bool) -> Size:
        return self.quick if quick else self.full


_TABLE2_ALL = ("compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv")
_TABLE2_QUICK = ("compress", "ora", "tomcatv")
_KERNELS = ("daxpy", "dot", "strhash", "listwalk")
_EXPLORE = ("compress", "ora", "tomcatv")
#: The search samples the same 16 machines whatever the workload seed:
#: host time per trial depends strongly on the sampled cluster counts
#: (4.6-8.0 s across three search seeds at 2k traces), so a per-seed
#: sample would measure the draw, not the program.  The workload seed
#: still sets every trace.
SEARCH_SEED = 7

WORKLOADS: dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            "table2-compile",
            "table2", 1,
            Size(5_000, _TABLE2_ALL), Size(1_000, _TABLE2_QUICK),
            golden_key="table2",
        ),
        WorkloadDef(
            "kernels-sim",
            "kernels", 1,
            Size(8_000, _KERNELS), Size(2_000, _KERNELS),
            golden_key="kernels",
        ),
        WorkloadDef(
            "table2-jobs2",
            "table2", 2,
            Size(5_000, _TABLE2_ALL), Size(1_000, _TABLE2_QUICK),
            golden_key="table2",
        ),
        WorkloadDef(
            "explore-jobs2",
            "explore", 2,
            Size(2_000, _EXPLORE, budget=16), Size(1_000, _EXPLORE, budget=4),
            golden_key="explore",
        ),
    )
}


def _mod(name: str):
    return importlib.import_module(name)


@dataclass
class Prepared:
    """A workload's inputs, built before the timed region."""

    spec: WorkloadDef
    seed: int
    size: Size
    inputs: Any = None


@dataclass
class Outcome:
    """What one run produced, in JSON-native form."""

    #: op id -> canonical value (a stats fingerprint or a trial payload).
    ops: dict[str, Any] = field(default_factory=dict)
    #: op id -> simulated instructions retired (parts only).
    instructions: dict[str, int] = field(default_factory=dict)
    #: Simulated instructions retired by the whole run.
    retired: int = 0
    #: Ops that raised or were reported failed by the program.
    failed: list[str] = field(default_factory=list)
    #: Table 2 rows (``bench -> [pct_none, pct_local]``) where applicable.
    rows: dict[str, list[float]] = field(default_factory=dict)
    #: Mean absolute error of the rows against the paper's Table 2.
    paper_err_pct: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "instructions": self.instructions,
            "retired": self.retired,
            "failed": self.failed,
            "rows": self.rows,
            "paper_err_pct": self.paper_err_pct,
        }


def expected_ops(spec: WorkloadDef, quick: bool) -> list[str]:
    """Every op id a run of this workload must report."""
    size = spec.size(quick)
    if spec.kind == "explore":
        return ["baseline"] + [f"trial:{i:02d}" for i in range(size.budget)]
    return [f"{b}:{p}" for b in size.benchmarks for p in PARTS]


def prepare(name: str, seed: int, quick: bool = False) -> Prepared:
    """Import the program and build every input of one workload."""
    spec = WORKLOADS[name]
    size = spec.size(quick)
    prepared = Prepared(spec, seed, size)
    # run_table2 and the search build their SPEC92 workloads themselves.
    if spec.kind == "kernels":
        registry = _mod("repro.workloads.kernels").KERNELS
        prepared.inputs = {b: registry[b]() for b in size.benchmarks}
    elif spec.kind == "explore":
        gym = _mod("repro.gym")
        prepared.inputs = {
            "spec": gym.SearchSpec("random", seed=SEARCH_SEED, budget=size.budget),
            "space": gym.DesignSpace(),
            "settings": gym.GymSettings(
                benchmarks=size.benchmarks,
                trace_length=size.trace_length,
                trace_seed=seed,
                part="dual_none",
            ),
        }
    return prepared


def _stats_fp(sim) -> str:
    return _mod("repro.perf.fingerprint").fingerprint(sim.stats.as_dict())


def run(prepared: Prepared, jobs: Optional[int] = None) -> Outcome:
    """Run one workload once; ``jobs`` overrides the workload's own."""
    jobs = prepared.spec.jobs if jobs is None else jobs
    kind = prepared.spec.kind
    if kind == "table2":
        return _run_table2(prepared, jobs)
    if kind == "kernels":
        return _run_kernels(prepared)
    return _run_explore(prepared, jobs)


def _options(prepared: Prepared, jobs: int):
    harness = _mod("repro.experiments.harness")
    return harness.EvaluationOptions(
        trace_length=prepared.size.trace_length,
        trace_seed=prepared.seed,
        jobs=jobs,
        heartbeat_interval=None,
    )


def _run_table2(prepared: Prepared, jobs: int) -> Outcome:
    table2 = _mod("repro.experiments.table2")
    result = table2.run_table2(prepared.size.benchmarks, _options(prepared, jobs))
    out = Outcome()
    for row in result.rows:
        ev = row.evaluation
        out.rows[row.benchmark] = [row.pct_none, row.pct_local]
        for part in PARTS:
            sim = getattr(ev, part)
            op = f"{row.benchmark}:{part}"
            out.ops[op] = _stats_fp(sim)
            out.instructions[op] = sim.stats.instructions
            out.retired += sim.stats.instructions
    for failure in result.failures:
        out.failed.extend(f"{failure.benchmark}:{p}" for p in PARTS)
    out.paper_err_pct = _paper_err_pct(out.rows)
    return out


def _run_kernels(prepared: Prepared) -> Outcome:
    harness = _mod("repro.experiments.harness")
    cache_cls = _mod("repro.perf.cache").ArtifactCache
    errors = _mod("repro.errors")
    options = _options(prepared, 1)
    out = Outcome()
    for name, workload in prepared.inputs.items():
        cache = cache_cls()
        for part in PARTS:
            op = f"{name}:{part}"
            try:
                outcome = harness.evaluate_workload_part(workload, part, options, cache)
            except errors.ReproError:
                out.failed.append(op)
                continue
            out.ops[op] = _stats_fp(outcome.sim)
            out.instructions[op] = outcome.sim.stats.instructions
            out.retired += outcome.sim.stats.instructions
    return out


def _run_explore(prepared: Prepared, jobs: int) -> Outcome:
    drivers = _mod("repro.gym.drivers")
    inputs = prepared.inputs
    result = drivers.run_search(
        inputs["spec"], inputs["space"], inputs["settings"], jobs=jobs
    )
    out = Outcome()
    out.ops["baseline"] = result.baseline.as_dict()
    for index, _generation, trial in result.trials:
        out.ops[f"trial:{index:02d}"] = trial.as_dict()
    # Every simulation retires the whole trace (checked per call in the
    # traced run): one baseline and one trial run per benchmark.
    size = prepared.size
    out.retired = len(size.benchmarks) * (1 + len(result.trials)) * size.trace_length
    return out


def _paper_err_pct(rows: dict[str, list[float]]) -> Optional[float]:
    """Mean absolute error of pct_none/pct_local against the paper's Table 2."""
    if not rows:
        return None
    paper = _mod("repro.workloads.spec92").PAPER_TABLE2
    errs = [
        abs(got - want)
        for bench, pair in rows.items()
        for got, want in zip(pair, paper[bench])
    ]
    return sum(errs) / len(errs)


# ------------------------------------------------------------------ checks
def check(
    spec: WorkloadDef,
    quick: bool,
    outcome: dict,
    golden: Optional[dict],
    reference: Optional[dict] = None,
) -> list[str]:
    """Op ids that failed or mismatched; ``[]`` means the run is correct.

    With a golden file every op must equal it.  Without one, every part
    must retire exactly ``trace_length`` instructions and every search
    result must be well formed; ``reference`` (a serial run's ops) must
    match op for op when given.
    """
    size = spec.size(quick)
    ops = outcome["ops"]
    expected = set(expected_ops(spec, quick))
    bad = set(outcome["failed"]) | (expected ^ set(ops))
    for op, value in ops.items():
        if golden is not None and golden["ops"].get(op) != value:
            bad.add(op)
        if reference is not None and reference.get(op) != value:
            bad.add(op)
        if spec.kind == "explore":
            cycles = value.get("cycles", {})
            if sorted(cycles) != sorted(size.benchmarks) or min(cycles.values()) <= 0:
                bad.add(op)
        elif outcome["instructions"].get(op) != size.trace_length:
            bad.add(op)
    return sorted(bad)


def golden_name(spec: WorkloadDef, seed: int, quick: bool) -> str:
    return f"{spec.golden_key}-seed{seed}{'-quick' if quick else ''}.json"


def golden_payload(spec: WorkloadDef, seed: int, quick: bool, outcome: dict) -> dict:
    size = spec.size(quick)
    return {
        "workload": spec.golden_key,
        "seed": seed,
        "trace_length": size.trace_length,
        "benchmarks": list(size.benchmarks),
        "ops": outcome["ops"],
    }
