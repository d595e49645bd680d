"""The paper's experiments: one module per table/figure (DESIGN.md §5)."""

from repro.experiments.ablations import (
    AblationPoint,
    AblationResult,
    QueueSizePoint,
    QueueSizeResult,
    run_ablation,
)
from repro.experiments.cycle_time import (
    CycleTimeReport,
    CycleTimeRow,
    format_cycle_time_analysis,
    run_cycle_time_analysis,
)
from repro.experiments.figure6 import (
    Figure6Result,
    PAPER_ASSIGNMENT_ORDER,
    PAPER_BLOCK_ORDER,
    build_figure6_program,
    run_figure6,
)
from repro.experiments.harness import (
    BenchmarkEvaluation,
    EvaluationOptions,
    evaluate_workload,
    speedup_percent,
)
from repro.experiments.scenarios import (
    SCENARIOS,
    ScenarioSpec,
    ScenarioTimeline,
    build_scenario_program,
    format_timeline,
    run_all_scenarios,
    run_scenario,
    scenario_assignment,
)
from repro.experiments.reassignment import (
    ReassignmentResult,
    format_reassignment_result,
    run_reassignment_demo,
)
from repro.experiments.report import FullReport, generate_report, write_report
from repro.experiments.table2 import (
    Table2Result,
    Table2Row,
    format_table2,
    run_table2,
)

__all__ = [
    "AblationPoint",
    "AblationResult",
    "QueueSizePoint",
    "QueueSizeResult",
    "run_ablation",
    "CycleTimeReport",
    "CycleTimeRow",
    "format_cycle_time_analysis",
    "run_cycle_time_analysis",
    "Figure6Result",
    "PAPER_ASSIGNMENT_ORDER",
    "PAPER_BLOCK_ORDER",
    "build_figure6_program",
    "run_figure6",
    "BenchmarkEvaluation",
    "EvaluationOptions",
    "evaluate_workload",
    "speedup_percent",
    "SCENARIOS",
    "ScenarioSpec",
    "ScenarioTimeline",
    "build_scenario_program",
    "format_timeline",
    "run_all_scenarios",
    "run_scenario",
    "scenario_assignment",
    "ReassignmentResult",
    "format_reassignment_result",
    "run_reassignment_demo",
    "FullReport",
    "generate_report",
    "write_report",
    "Table2Result",
    "Table2Row",
    "format_table2",
    "run_table2",
]
