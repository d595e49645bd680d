"""End-to-end benchmark of the multicluster reproduction.

Four workloads (see ``workloads.py``), end-to-end metrics from untraced
runs, per-layer metrics from one traced serial run.  Every run is a fresh
child interpreter (``child.py``), started one at a time; no run uses more
than two worker processes.  ``BENCHMARK.json`` at the repository root names
the metrics, their units, directions and regression bounds.

One workload, result as the last line of standard output::

    python3 benchmarks/e2e/run.py --workload table2-compile --seed 7 \\
        --seconds 15 --trace 0

The whole suite, every metric printed and written to ``OUT/results.json``::

    python3 benchmarks/e2e/run.py [--seed 7] [--reps 3] [--workloads ...] \\
        [--out benchmarks/e2e/out] [--quick]

Two checkouts (each a repository root holding ``src/repro``) measured with
this benchmark code, rep by rep in pairs that alternate which side runs
first; both sets and their comparison go to ``OUT/compare.json``::

    python3 benchmarks/e2e/run.py --ab PARENT_ROOT CHANGE_ROOT [--reps 10]

Golden fingerprints (seeds 7 and 1997 unless ``--seed`` is given)::

    python3 benchmarks/e2e/run.py --write-golden

Comparison of two suites, one row per workload and metric::

    python3 benchmarks/e2e/run.py --compare A/results.json B/results.json
    python3 benchmarks/e2e/run.py --compare benchmarks/e2e/BENCH_baseline.json

Exit status: 0 when every output is correct, 1 when any output failed or
mismatched its golden file (after the result is printed and written) or a
comparison reads ``worse``, 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD = HERE / "child.py"
GOLDEN_DIR = HERE / "golden"
DEFAULT_OUT = HERE / "out"
GOLDEN_SEEDS = (7, 1997)
#: Set-up is a few tenths of a second, too noisy to sample once; the
#: median of five spawns is not moved by one slow spawn.
SETUP_SPAWNS = 5
#: No single child may outlive this; a wedged run counts as failed.  One
#: ``--workload`` run must end within three minutes.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (missing program or definition)."""


def load_definition() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def check_program(root: Path) -> None:
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"the repro package is not under {root / 'src'}; run the benchmark "
            "from a full checkout of the repository"
        )


# ---------------------------------------------------------------- children
@dataclass
class ChildRun:
    """One finished child: its set-up seconds and its JSON result."""

    setup_s: Optional[float]
    result: Optional[dict]
    error: str = ""


def spawn(mode: str, workload: str, seed: int, quick: bool, *extra: str,
          root: Path = ROOT) -> ChildRun:
    """Run one child on the program of the checkout at ``root``.

    The child prints ``ready`` when set-up ends; the parent's clock runs
    from just before the interpreter starts until that line is written,
    read through the system-wide monotonic clock the child stamps it with.
    """
    args = [sys.executable, str(CHILD), mode, workload, str(seed), *extra]
    if quick:
        args.append("--quick")
    start = time.monotonic()
    proc = subprocess.Popen(args, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return ChildRun(None, None, f"{mode} child timed out after {CHILD_TIMEOUT_S}s")
    lines = stdout.splitlines()
    setup_s = None
    for line in lines:
        if line.startswith("ready "):
            setup_s = float(line.split()[1]) - start
    if proc.returncode != 0:
        return ChildRun(setup_s, None, f"{mode} child exited with {proc.returncode}")
    if mode == "setup":
        return ChildRun(setup_s, None)
    try:
        return ChildRun(setup_s, json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        return ChildRun(setup_s, None, f"{mode} child printed no result")


# ----------------------------------------------------------------- golden
def golden_for(spec: workloads.WorkloadDef, seed: int, quick: bool) -> Optional[dict]:
    path = GOLDEN_DIR / workloads.golden_name(spec, seed, quick)
    return json.loads(path.read_text()) if path.is_file() else None


# ------------------------------------------------------------- statistics
def summarize(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "unit": unit,
        "samples": samples,
    }


# ------------------------------------------------------------ measurement
class WorkloadRun:
    """Everything measured for one workload at one seed on one checkout."""

    def __init__(self, name: str, seed: int, quick: bool, root: Path = ROOT) -> None:
        self.spec = workloads.WORKLOADS[name]
        self.seed = seed
        self.quick = quick
        self.root = root
        self.golden = golden_for(self.spec, seed, quick)
        self.setups: list[float] = []
        self.reps: list[dict] = []
        self.serial_rep: Optional[dict] = None
        self.traced: Optional[dict] = None
        self.attempted = 0
        self.bad: set[str] = set()
        self.errors: list[str] = []

    @property
    def name(self) -> str:
        return self.spec.name

    def _check(self, outcome: dict, label: str) -> None:
        ops = workloads.expected_ops(self.spec, self.quick)
        self.attempted += len(ops)
        bad = workloads.check(self.spec, self.quick, outcome, self.golden)
        self.bad.update(f"{label}/{op}" for op in bad)

    def _child(self, mode: str, label: str, *extra: str) -> Optional[dict]:
        run = spawn(mode, self.name, self.seed, self.quick, *extra, root=self.root)
        if run.result is None and mode != "setup":
            # A run that produced nothing failed every op it owed.
            ops = workloads.expected_ops(self.spec, self.quick)
            self.attempted += len(ops)
            self.bad.update(f"{label}/{op}" for op in ops)
            self.errors.append(f"{self.name} {label}: {run.error}")
        elif run.error:
            self.errors.append(f"{self.name} {label}: {run.error}")
        if mode == "setup" and run.setup_s is not None and not run.error:
            self.setups.append(run.setup_s)
        return run.result

    def setup(self, index: int) -> None:
        """One set-up sample."""
        self._child("setup", f"setup{index}")

    def rep(self) -> Optional[dict]:
        """One untraced rep, checked; ``None`` if it produced nothing."""
        label = f"rep{len(self.reps)}"
        result = self._child("rep", label)
        if result is not None:
            self._check(result["outcome"], label)
            self.reps.append(result)
        return result

    def measure(self, reps: Optional[int] = None, seconds: Optional[float] = None) -> None:
        """Set-up samples, then exactly ``reps`` untraced reps, or as many
        whole reps as fit in ``seconds`` of measured time (at least one)."""
        for i in range(SETUP_SPAWNS):
            self.setup(i)
        while self.rep() is not None:
            done = len(self.reps)
            measured = sum(r["wall_s"] for r in self.reps)
            if done == reps or (reps is None and measured + measured / done > seconds):
                return

    def measure_serial(self) -> None:
        """One untraced serial rep of a parallel workload: the reference its
        parallel reps must equal, and the base of the tracer's overhead."""
        if self.spec.jobs > 1 and self.serial_rep is None:
            self.serial_rep = self._child("rep", "serial", "--jobs", "1")
            if self.serial_rep is not None:
                self._check(self.serial_rep["outcome"], "serial")

    def agree(self, reference: dict) -> None:
        """Every untraced run must equal ``reference`` (ops) op for op."""
        runs = [("serial", self.serial_rep)] + [(f"rep{i}", r) for i, r in enumerate(self.reps)]
        for label, run in runs:
            if run is not None:
                bad = workloads.check(self.spec, self.quick, run["outcome"], None, reference)
                self.bad.update(f"{label}/{op}" for op in bad)

    def check_without_golden(self) -> None:
        """On a seed with no golden file the reps must agree with one serial
        run: a ``--jobs 1`` rep for a parallel workload, else the first rep."""
        if self.golden is None and self.reps:
            self.measure_serial()
            self.agree((self.serial_rep or self.reps[0])["outcome"]["ops"])

    def measure_traced(self, trace_out: Path) -> None:
        """One traced serial run; the untraced reps must equal it."""
        if not self.reps:
            return
        self.measure_serial()
        if self.spec.jobs > 1 and self.serial_rep is None:
            return
        self.traced = self._child("traced", "traced", "--trace-out", str(trace_out))
        if self.traced is None:
            return
        reference = self.traced["outcome"]
        self._check(reference, "traced")
        size = self.spec.size(self.quick)
        if self.traced["instructions"] != self.traced["simulations"] * size.trace_length:
            self.bad.add("traced/retired")
            self.errors.append(f"{self.name}: a simulation did not retire its whole trace")
        self.agree(reference["ops"])
        # Ratios against untraced walls, which only this process holds.
        wall = statistics.median(r["wall_s"] for r in self.reps)
        serial_wall = self.serial_rep["wall_s"] if self.serial_rep else wall
        metrics = self.traced["metrics"]
        overhead = self.traced["wall_s"] / serial_wall - 1.0
        metrics["trace.overhead_frac"] = overhead
        # The traced task times carry the tracer's overhead; scale it out
        # before comparing busy time with the untraced wall time.
        metrics["executor.efficiency"] = metrics["executor.busy_s"] / (
            (1.0 + overhead) * self.spec.jobs * wall
        )

    # ------------------------------------------------------------ results
    def end_to_end(self) -> dict[str, dict]:
        out: dict[str, dict] = {}
        if self.setups:
            out["setup_s"] = summarize(self.setups, "s")
        if self.reps:
            walls = [r["wall_s"] for r in self.reps]
            out["wall_s"] = summarize(walls, "s")
            out["sim_kips"] = summarize(
                [r["outcome"]["retired"] / 1000.0 / r["wall_s"] for r in self.reps],
                "kinstr/s",
            )
            out["peak_rss_mb"] = summarize([r["peak_rss_mb"] for r in self.reps], "MB")
        return out

    @property
    def failed(self) -> int:
        return len(self.bad)

    @property
    def correct(self) -> bool:
        return not self.bad and not self.errors

    def as_dict(self) -> dict:
        first = self.reps[0]["outcome"] if self.reps else {}
        out = {
            "workload": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "jobs": self.spec.jobs,
            "trace_length": self.spec.size(self.quick).trace_length,
            "golden": self.golden is not None,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.failed / self.attempted if self.attempted else 1.0,
            "mismatched": sorted(self.bad),
            "errors": self.errors,
            "end_to_end": self.end_to_end(),
        }
        if first.get("rows"):
            out["table2_rows"] = first["rows"]
            out["paper_err_pct"] = first["paper_err_pct"]
        if self.traced is not None:
            out["per_layer"] = self.traced["metrics"]
            out["largest_layer"] = self.traced["largest_layer"]
            out["breakdown"] = self.traced["breakdown"]
        return out


# ------------------------------------------------------------------ output
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(result: dict, definition: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, jobs {result['jobs']}, "
          f"{result['trace_length']} traces) ==")
    for m in definition["end_to_end"]:
        s = result["end_to_end"].get(m["name"])
        if s:
            print(f"  {m['name']:<24} {_fmt(s['median']):>12} {s['unit']:<10} "
                  f"q1 {_fmt(s['q1'])} q3 {_fmt(s['q3'])} n={s['n']}")
    print(f"  {'error_rate':<24} {_fmt(result['error_rate']):>12} {'frac':<10} "
          f"({result['failed']} of {result['attempted']} ops; "
          f"golden {'yes' if result['golden'] else 'no, fallback checks'})")
    if "paper_err_pct" in result:
        print(f"  {'paper_err_pct':<24} {_fmt(result['paper_err_pct']):>12} {'pct':<10} "
              "(mean |pct_none/pct_local - paper Table 2|)")
        for bench, (none, local) in result["table2_rows"].items():
            print(f"    {bench:<10} none {none:+7.2f}  local {local:+7.2f}")
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name:<32} {_fmt(value):>12} {units.get(name, '')}")
    if "largest_layer" in result:
        print(f"  largest layer: {result['largest_layer']}")
    for error in result["errors"]:
        print(f"  ERROR {error}")


def result_line(run: WorkloadRun, definition: dict, trace: bool) -> dict:
    """The one-line result: every end-to-end metric, or every per-layer one."""
    metrics = {}
    if trace:
        layer = run.traced["metrics"]
        for m in definition["per_layer"]:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
    else:
        e2e = run.end_to_end()
        for m in definition["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]]["median"], "unit": m["unit"]}
    return {
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }


def suite_document(args, results: list[dict]) -> dict:
    return {
        "schema": 1,
        "seed": args.seed,
        "reps": args.reps,
        "quick": args.quick,
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "workloads": {r["workload"]: r for r in results},
    }


# ------------------------------------------------------------------ modes
def run_one(args, definition: dict) -> int:
    run = WorkloadRun(args.workload, args.seed, args.quick)
    if args.trace:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        run.rep()
        run.measure_traced(out_dir / f"{args.workload}.trace.json")
        ready = run.traced is not None
    else:
        run.measure(seconds=args.seconds or definition["run_seconds"])
        run.check_without_golden()
        ready = bool(run.reps) and bool(run.setups)
    for error in run.errors:
        print(f"error: {error}", file=sys.stderr)
    if not ready:
        return 1
    print(json.dumps(result_line(run, definition, bool(args.trace))))
    return 0 if run.correct else 1


def run_suite(args, definition: dict) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name in args.workloads:
        run = WorkloadRun(name, args.seed, args.quick)
        run.measure(reps=args.reps)
        run.measure_traced(out_dir / f"{name}.trace.json")
        result = run.as_dict()
        print_workload(result, definition)
        results.append(result)
    path = out_dir / "results.json"
    path.write_text(json.dumps(suite_document(args, results), indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(r["correct"] for r in results) else 1


def run_ab(args, definition: dict) -> int:
    """Two checkouts, sample by sample.  Host speed drifts by tens of
    percent over minutes on a shared machine; pairs that alternate which
    side runs first put that drift on both sides alike."""
    roots = [Path(p).resolve() for p in args.ab]
    for root in roots:
        check_program(root)
    out_dir = Path(args.out)
    sides = [out_dir / "a", out_dir / "b"]
    for side in sides:
        side.mkdir(parents=True, exist_ok=True)
    results: list[list[dict]] = [[], []]
    for name in args.workloads:
        pair = [WorkloadRun(name, args.seed, args.quick, root) for root in roots]
        for i in range(SETUP_SPAWNS):
            for run in pair[:: 1 if i % 2 == 0 else -1]:
                run.setup(i)
        for i in range(args.reps):
            for run in pair[:: 1 if i % 2 == 0 else -1]:
                run.rep()
        for run, side, done in zip(pair, sides, results):
            run.measure_traced(side / f"{name}.trace.json")
            done.append(run.as_dict())
            print(f"-- {run.root}")
            print_workload(done[-1], definition)
    sets = [suite_document(args, r) for r in results]
    rows = compare(sets[0], sets[1], definition, paired=True)
    print_compare(rows)
    path = out_dir / "compare.json"
    document = {"schema": 1, "paired": True, "sets": sets, "compare": rows}
    path.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {path}")
    correct = all(r["correct"] for side in results for r in side)
    return 0 if correct and not any(r["verdict"] == "worse" for r in rows) else 1


def write_golden(args) -> int:
    """Record golden outputs from one serial rep per golden file."""
    seeds = [args.seed] if args.seed_given else list(GOLDEN_SEEDS)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    status = 0
    done = set()
    for name in args.workloads:
        spec = workloads.WORKLOADS[name]
        for seed in seeds:
            target = workloads.golden_name(spec, seed, args.quick)
            if target in done:
                continue
            done.add(target)
            result = spawn("rep", name, seed, args.quick, "--jobs", "1").result
            if result is None:
                print(f"error: {name} seed {seed} did not run", file=sys.stderr)
                status = 1
                continue
            bad = workloads.check(spec, args.quick, result["outcome"], None)
            if bad:
                print(f"error: {name} seed {seed} failed checks: {bad}", file=sys.stderr)
                status = 1
                continue
            payload = workloads.golden_payload(spec, seed, args.quick, result["outcome"])
            (GOLDEN_DIR / target).write_text(json.dumps(payload, indent=1) + "\n")
            print(f"wrote {GOLDEN_DIR / target}")
    return status


# ---------------------------------------------------------------- compare
def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric (B vs A)."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B is worse than A, as a share of A's median.
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    b_better = all(sign * (y - x) < 0 for x in a["samples"] for y in b["samples"])
    b_worse = all(sign * (y - x) > 0 for x in a["samples"] for y in b["samples"])
    if spread > bound:
        if b_better:
            return "better"
        if b_worse:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(a_doc: dict, b_doc: dict, definition: dict, paired: bool = False) -> list[dict]:
    """One row per workload and end-to-end metric.  ``paired`` sets come
    from ``--ab``, where the i-th samples of A and B ran back to back, so
    each row also gives the median B/A ratio and how many pairs B won."""
    rows = []
    for name, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(name)
        if b is None:
            continue
        for m in definition["end_to_end"]:
            sa, sb = a["end_to_end"].get(m["name"]), b["end_to_end"].get(m["name"])
            if not sa or not sb:
                continue
            row = {
                "workload": name,
                "metric": m["name"],
                "unit": m["unit"],
                "bound": m["bound"],
                "a": [sa["median"], sa["q1"], sa["q3"]],
                "b": [sb["median"], sb["q1"], sb["q3"]],
                "verdict": verdict(sa, sb, m["better"], m["bound"]),
            }
            if paired:
                sign = 1.0 if m["better"] == "lower" else -1.0
                pairs = list(zip(sa["samples"], sb["samples"]))
                row["pairs"] = len(pairs)
                # Ties count for neither side.
                row["b_better_pairs"] = sum(sign * (y - x) < 0 for x, y in pairs)
                row["pair_ratio"] = statistics.median(y / x for x, y in pairs)
            rows.append(row)
    return rows


def print_compare(rows: list[dict]) -> None:
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} {'bound':>6}  verdict")
    for r in rows:
        a = f"{_fmt(r['a'][0])} [{_fmt(r['a'][1])}, {_fmt(r['a'][2])}]"
        b = f"{_fmt(r['b'][0])} [{_fmt(r['b'][1])}, {_fmt(r['b'][2])}]"
        pairs = ""
        if "pairs" in r:
            pairs = (f"  B/A {r['pair_ratio']:.3f}, B better in "
                     f"{r['b_better_pairs']}/{r['pairs']} pairs")
        print(f"{r['workload']:<15} {r['metric']:<12} {a:<34} {b:<34} "
              f"{r['bound']:>6}  {r['verdict']:<10}{pairs}")


def run_compare(args, definition: dict) -> int:
    docs = [json.loads(Path(p).read_text()) for p in args.compare]
    paired = False
    if len(docs) == 1:
        if "sets" not in docs[0]:
            raise BenchError("--compare with one file needs a baseline file with 'sets'")
        paired = docs[0].get("paired", False)
        docs = docs[0]["sets"]
    rows = compare(docs[0], docs[1], definition, paired)
    print_compare(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


# ------------------------------------------------------------------- main
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload and print its one-line result")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per --workload run, in whole reps "
                        "(default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", choices=list(workloads.WORKLOADS),
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--quick", action="store_true",
                        help="1k/2k-instruction traces and a smaller search")
    parser.add_argument("--write-golden", action="store_true")
    parser.add_argument("--ab", nargs=2, metavar="ROOT",
                        help="measure two checkouts in alternating pairs and compare them")
    parser.add_argument("--compare", nargs="+", metavar="RESULTS")
    args = parser.parse_args(argv)
    args.seed_given = args.seed is not None
    if args.seed is None:
        args.seed = 7
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes one baseline file or two results files")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        definition = load_definition()
        if args.compare:
            return run_compare(args, definition)
        if args.ab:
            return run_ab(args, definition)
        check_program(ROOT)
        if args.write_golden:
            return write_golden(args)
        if args.workload:
            return run_one(args, definition)
        return run_suite(args, definition)
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
