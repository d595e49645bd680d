"""Experiment E9: the Section 4.2 / Section 5 cycle-time analysis.

Combines the simulated cycle counts (Table 2) with the calibrated
Palacharla-style delay model to reproduce the paper's conclusion:

* at 0.35 µm the available clock advantage of a 4-issue cluster
  (1 - 1/1.18 ≈ 15 %) does not cover even the local scheduler's
  cycle-count slowdowns — "reducing the cycle time through partitioning
  would not improve overall performance";
* at 0.18 µm the advantage (1 - 1/1.82 ≈ 45 %) dwarfs the worst-case
  slowdown — "a significant net performance improvement could be
  obtained".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.table2 import Table2Result, run_table2
from repro.timing.analysis import (
    available_clock_reduction,
    break_even_clock_reduction,
    net_performance,
)
from repro.timing.palacharla import TECHNOLOGIES


@dataclass
class CycleTimeRow:
    benchmark: str
    pct_local: float  # cycle-count speedup (Table 2 metric, usually < 0)
    net_035: float    # net run-time speedup % at 0.35um
    net_018: float    # net run-time speedup % at 0.18um


@dataclass
class CycleTimeReport:
    rows: list[CycleTimeRow]
    available_035: float
    available_018: float
    worst_case_break_even: float

    @property
    def wins_at_018(self) -> int:
        return sum(1 for r in self.rows if r.net_018 > 0)

    @property
    def wins_at_035(self) -> int:
        return sum(1 for r in self.rows if r.net_035 > 0)


def run_cycle_time_analysis(
    table2: Optional[Table2Result] = None,
) -> CycleTimeReport:
    """Produce the net-performance analysis from Table 2 cycle counts."""
    if table2 is None:
        table2 = run_table2()
    rows: list[CycleTimeRow] = []
    worst_slowdown = 0.0
    for t2row in table2.rows:
        ev = t2row.evaluation
        worst_slowdown = max(worst_slowdown, -t2row.pct_local)
        net35 = net_performance(
            t2row.benchmark,
            ev.single.cycles,
            ev.dual_local.cycles,
            TECHNOLOGIES["0.35um"],
        )
        net18 = net_performance(
            t2row.benchmark,
            ev.single.cycles,
            ev.dual_local.cycles,
            TECHNOLOGIES["0.18um"],
        )
        rows.append(
            CycleTimeRow(
                benchmark=t2row.benchmark,
                pct_local=t2row.pct_local,
                net_035=net35.net_speedup_pct,
                net_018=net18.net_speedup_pct,
            )
        )
    return CycleTimeReport(
        rows=rows,
        available_035=available_clock_reduction(TECHNOLOGIES["0.35um"]),
        available_018=available_clock_reduction(TECHNOLOGIES["0.18um"]),
        worst_case_break_even=break_even_clock_reduction(worst_slowdown),
    )


def format_cycle_time_analysis(report: CycleTimeReport) -> str:
    lines = [
        "Net multicluster performance (cycles x clock period), local scheduler",
        f"available clock reduction: {report.available_035:.1f}% @0.35um, "
        f"{report.available_018:.1f}% @0.18um",
        f"worst-case slowdown needs {report.worst_case_break_even:.1f}% (break-even)",
        f"{'benchmark':<10} {'cycles %':>9} {'net @0.35um':>12} {'net @0.18um':>12}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.benchmark:<10} {row.pct_local:+9.1f} {row.net_035:+11.1f}% "
            f"{row.net_018:+11.1f}%"
        )
    lines.append(
        f"multicluster wins on {report.wins_at_035}/{len(report.rows)} benchmarks "
        f"@0.35um and {report.wins_at_018}/{len(report.rows)} @0.18um"
    )
    return "\n".join(lines)
