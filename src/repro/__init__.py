"""Reproduction of the Multicluster Architecture (Farkas, Chow, Jouppi,
Vranesic -- MICRO-30, 1997).

The package is organized bottom-up:

* :mod:`repro.isa` -- Alpha-flavoured ISA (registers, opcodes, machine
  instructions).
* :mod:`repro.ir` -- compiler IR: IL values/instructions, basic blocks,
  CFGs, live ranges, machine programs.
* :mod:`repro.compiler` -- the six-step code-generation methodology of
  Section 3.1 (optimization, scheduling, webs, graph-colouring register
  allocation with cluster-aware spilling, lowering).
* :mod:`repro.core` -- the paper's contribution: register-to-cluster
  assignment, the instruction-distribution scenarios of Section 2.1, and
  the live-range partitioners including the local scheduler (Section 3.5).
* :mod:`repro.uarch` -- the cycle-level single-/dual-cluster processor of
  Section 4.1.
* :mod:`repro.workloads` -- synthetic SPEC92 stand-ins and trace generation.
* :mod:`repro.timing` -- Palacharla-style cycle-time models (Section 4.2).
* :mod:`repro.experiments` -- one harness per paper table/figure.

Quickstart::

    from repro.experiments import run_table2, format_table2
    print(format_table2(run_table2(["compress"])))
"""

from repro.compiler import CompilationResult, CompilerOptions, compile_program
from repro.core import (
    DistributionPlan,
    LocalScheduler,
    Partitioner,
    RegisterAssignment,
    Scenario,
    plan_for_instruction,
)
from repro.experiments import (
    EvaluationOptions,
    evaluate_workload,
    format_table2,
    run_table2,
    speedup_percent,
)
from repro.uarch import (
    Processor,
    ProcessorConfig,
    SimulationResult,
    dual_cluster_config,
    simulate,
    single_cluster_config,
)
from repro.workloads import (
    SPEC92,
    TraceGenerator,
    Workload,
    WorkloadSpec,
    build_benchmark,
    generate_workload,
)

__version__ = "1.0.0"

__all__ = [
    "CompilationResult",
    "CompilerOptions",
    "compile_program",
    "DistributionPlan",
    "LocalScheduler",
    "Partitioner",
    "RegisterAssignment",
    "Scenario",
    "plan_for_instruction",
    "EvaluationOptions",
    "evaluate_workload",
    "format_table2",
    "run_table2",
    "speedup_percent",
    "Processor",
    "ProcessorConfig",
    "SimulationResult",
    "dual_cluster_config",
    "simulate",
    "single_cluster_config",
    "SPEC92",
    "TraceGenerator",
    "Workload",
    "WorkloadSpec",
    "build_benchmark",
    "generate_workload",
    "__version__",
]
