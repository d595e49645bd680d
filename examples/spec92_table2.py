#!/usr/bin/env python
"""Regenerate the paper's Table 2 over the SPEC92 stand-ins.

Runs the full Section 4 methodology — native vs rescheduled binaries on
the single- and dual-cluster machines — and prints the speedup table next
to the paper's published values.

Run:  python examples/spec92_table2.py [trace_length] [benchmark ...]

The default trace length (30k) finishes in a couple of minutes; the full
experiment default (120k, via repro.experiments.table2.main) takes longer
but is less noisy.
"""

import sys

from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import format_table2, run_table2
from repro.workloads.spec92 import SPEC92


def main() -> None:
    args = sys.argv[1:]
    trace_length = int(args[0]) if args else 30_000
    benchmarks = args[1:] or sorted(SPEC92)
    print(
        f"Running Table 2 on {', '.join(benchmarks)} "
        f"({trace_length} dynamic instructions each; 3 simulations per benchmark)"
    )
    result = run_table2(benchmarks, EvaluationOptions(trace_length=trace_length))
    print()
    print(format_table2(result))
    print()
    print("Reading the table: ratios are 100 - 100*(C_dual/C_single);")
    print("negative = the dual-cluster machine needs more cycles. The paper's")
    print("claim is about *shape*: the local scheduler recovers most of the")
    print("unscheduled slowdown (except on ora).")


if __name__ == "__main__":
    main()
