"""Synthetic workloads, address streams, branch models, and trace generation."""

from repro.workloads.address_streams import (
    AddressStream,
    HotColdStream,
    RandomStream,
    StackStream,
    StridedStream,
)
from repro.workloads.branch_models import (
    BernoulliBranch,
    BranchBehavior,
    LoopBranch,
    MarkovBranch,
    PatternBranch,
)
from repro.workloads.generator import (
    ArraySpec,
    LoopSpec,
    Workload,
    WorkloadSpec,
    generate_workload,
)
from repro.workloads.kernels import (
    KERNELS,
    build_daxpy,
    build_dot_product,
    build_list_walk,
    build_string_hash,
)
from repro.workloads.spec92 import (
    DEFAULT_TRACE_LENGTH,
    PAPER_TABLE2,
    SPEC92,
    build_benchmark,
)
from repro.workloads.trace import DynamicInstruction
from repro.workloads.tracegen import SPILL_BASE, TraceGenerator

__all__ = [
    "AddressStream",
    "HotColdStream",
    "RandomStream",
    "StackStream",
    "StridedStream",
    "BernoulliBranch",
    "BranchBehavior",
    "LoopBranch",
    "MarkovBranch",
    "PatternBranch",
    "ArraySpec",
    "LoopSpec",
    "Workload",
    "WorkloadSpec",
    "generate_workload",
    "KERNELS",
    "build_daxpy",
    "build_dot_product",
    "build_list_walk",
    "build_string_hash",
    "DEFAULT_TRACE_LENGTH",
    "PAPER_TABLE2",
    "SPEC92",
    "build_benchmark",
    "DynamicInstruction",
    "SPILL_BASE",
    "TraceGenerator",
]
