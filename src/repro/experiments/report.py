"""Full-report generation: every paper artifact in one Markdown document.

``generate_report()`` runs the complete experiment suite — Table 2, the
scenario timelines, Figure 6, and the cycle-time analysis — and renders a
single Markdown report with the paper's reference values inline.  The CLI
equivalent is running each ``python -m repro`` subcommand; this module is
for producing an archivable artifact (``REPORT.md``).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

from repro.experiments.cycle_time import (
    CycleTimeReport,
    format_cycle_time_analysis,
    run_cycle_time_analysis,
)
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.harness import EvaluationOptions
from repro.experiments.scenarios import (
    ScenarioTimeline,
    format_timeline,
    run_all_scenarios,
)
from repro.experiments.table2 import Table2Result, format_table2, run_table2
from repro.timing.analysis import format_cycle_time_report


@dataclass
class FullReport:
    """Every regenerated artifact, plus the rendered Markdown."""

    table2: Table2Result
    scenarios: list[ScenarioTimeline]
    figure6: Figure6Result
    cycle_time: CycleTimeReport
    markdown: str


def generate_report(
    trace_length: int = 40_000,
    benchmarks: Optional[list[str]] = None,
) -> FullReport:
    """Run everything and render the report."""
    options = EvaluationOptions(trace_length=trace_length)
    table2 = run_table2(benchmarks, options)
    scenarios = run_all_scenarios()
    figure6 = run_figure6()
    cycle_time = run_cycle_time_analysis(table2)

    out = io.StringIO()
    w = out.write
    w("# Multicluster Architecture — regenerated results\n\n")
    w(f"Traces: {trace_length} dynamic instructions per run.\n\n")

    w("## Table 2 — speedup ratios\n\n```\n")
    w(format_table2(table2))
    w("\n```\n\n")

    w("## Figures 2–5 — dual-execution scenarios\n\n```\n")
    for timeline in scenarios:
        w(format_timeline(timeline))
        w("\n\n")
    w("```\n\n")

    w("## Figure 6 — local-scheduler worked example\n\n")
    w(f"* block traversal order: `{figure6.block_order}`\n")
    w(f"* assignment order: `{figure6.assignment_order}`\n")
    w(f"* matches the paper: **{figure6.matches_paper}**\n")
    w(f"* partition: `{figure6.partition}`\n\n")

    w("## Cycle-time analysis (Sections 4.2 and 5)\n\n```\n")
    w(format_cycle_time_report())
    w("\n\n")
    w(format_cycle_time_analysis(cycle_time))
    w("\n```\n")

    return FullReport(
        table2=table2,
        scenarios=scenarios,
        figure6=figure6,
        cycle_time=cycle_time,
        markdown=out.getvalue(),
    )


def write_report(
    path: str = "REPORT.md",
    trace_length: int = 40_000,
    benchmarks: Optional[list[str]] = None,
) -> FullReport:
    """Generate the report and write it to ``path``."""
    report = generate_report(trace_length, benchmarks)
    with open(path, "w") as handle:
        handle.write(report.markdown)
    return report
