"""One fresh interpreter per set-up sample, measured rep, or traced run.

``run.py`` starts this file; it is not meant to be run by hand::

    python benchmarks/e2e/child.py MODE WORKLOAD SEED [--quick] [--jobs N]
        [--trace-out PATH]

MODE is ``setup`` (import and build the inputs, then exit), ``rep`` (one
untraced run) or ``traced`` (one serial run with every layer wrapped).  The
child prints ``ready`` once the program is imported and the workload's
inputs are built — the parent's set-up clock stops there — and, except in
``setup`` mode, one JSON line with the result.  A traced run reports its
spans' metrics only; ratios against untraced walls are the parent's.

The program measured is the ``repro`` package under ``src/`` of the working
directory, so ``run.py --ab`` runs two checkouts with the same benchmark
code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import workloads  # noqa: E402

#: Modules every workload's run needs, imported during set-up so that
#: set-up time covers the same imports whichever workload is measured.
RUN_MODULES = (
    "repro.experiments.table2",
    "repro.gym.drivers",
    "repro.perf.parallel",
    "repro.perf.fingerprint",
    "repro.uarch.engine",
)


def _import_program() -> None:
    for name in RUN_MODULES:
        importlib.import_module(name)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any worker it waited for (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _ready() -> None:
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # reading taken just before it started this interpreter.
    print(f"ready {time.monotonic()!r}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "rep", "traced"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "traced":
        return _traced(args)

    _import_program()
    prepared = workloads.prepare(args.workload, args.seed, args.quick)
    _ready()
    if args.mode == "setup":
        return 0
    start = time.perf_counter()
    outcome = workloads.run(prepared, jobs=args.jobs)
    wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": _peak_rss_mb(),
        "outcome": outcome.as_dict(),
    }), flush=True)
    return 0


def _traced(args) -> int:
    import layers
    import tracer as tracing
    from repro.obs.spans import validate_chrome_trace

    _import_program()
    spec = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, layers.TARGETS):
        with tracer.span(layers.BUILD_SPAN):
            prepared = workloads.prepare(args.workload, args.seed, args.quick)
        _ready()
        with tracer.span(layers.RUN_SPAN):
            outcome = workloads.run(prepared, jobs=1)
    metrics = layers.layer_metrics(tracer, spec.kind)
    document = tracer.chrome_trace()
    validate_chrome_trace(document)
    if args.trace_out:
        Path(args.trace_out).write_text(json.dumps(document))
    print(json.dumps({
        "wall_s": tracer.spans[-1].duration,
        "metrics": metrics,
        "breakdown": layers.breakdown(tracer),
        "largest_layer": layers.largest_layer(metrics),
        "simulations": tracer.counters["uarch.simulations"],
        "instructions": tracer.counters["uarch.instructions"],
        "outcome": outcome.as_dict(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
