"""Experiment E2 — Table 2: speedup ratios for the six SPEC92 stand-ins.

Regenerates the paper's headline table at benchmark scale (reduced trace
length) and checks the reproduction's target *shape*:

* the dual-cluster machine costs cycles on almost every benchmark (the
  ratios are slowdowns);
* the local scheduler reduces the slowdown relative to the unscheduled
  native binary on the benchmarks the paper improves (all but ora);
* the local scheduler reduces dual-distribution everywhere.

``repro.experiments.table2`` runs the same harness at full scale.
"""

import pytest

from repro.experiments.harness import EvaluationOptions, evaluate_workload
from repro.experiments.table2 import format_table2, run_table2
from repro.workloads.spec92 import SPEC92

from conftest import BENCH_TRACE_LENGTH

#: Benchmarks the paper's local scheduler improves (all but ora).
IMPROVED = ["compress", "doduc", "gcc1", "su2cor", "tomcatv"]


@pytest.mark.parametrize("name", sorted(SPEC92))
def test_table2_row(benchmark, name):
    """One row of Table 2."""

    def run():
        workload = SPEC92[name]()
        return evaluate_workload(
            workload, EvaluationOptions(trace_length=BENCH_TRACE_LENGTH)
        )

    evaluation = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\n{name}: none={evaluation.pct_none:+.1f}% local={evaluation.pct_local:+.1f}% "
        f"(paper: see PAPER_TABLE2)"
    )
    # Every run retires the whole trace.
    for sim in (evaluation.single, evaluation.dual_none, evaluation.dual_local):
        assert sim.stats.instructions == BENCH_TRACE_LENGTH
    # The local scheduler always cuts dual-distribution sharply.
    assert (
        evaluation.dual_local.stats.dual_fraction
        < evaluation.dual_none.stats.dual_fraction
    )
    if name in IMPROVED:
        # Shape: rescheduling must not be materially worse than native.
        assert evaluation.pct_local >= evaluation.pct_none - 3.0


def test_table2_full(benchmark):
    """The whole table in one shot (printed in paper format)."""

    def run():
        return run_table2(options=EvaluationOptions(trace_length=BENCH_TRACE_LENGTH // 3))

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n" + format_table2(result))
    assert len(result.rows) == 6
    improved = sum(1 for r in result.rows if r.pct_local >= r.pct_none)
    assert improved >= 4  # the local scheduler wins on most benchmarks
