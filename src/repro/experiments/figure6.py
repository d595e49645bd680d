"""Experiment E8: the paper's Figure 6 worked example.

Builds the exact control-flow graph of Figure 6 (five basic blocks with
dynamic-execution estimates 20/10/10/100/20, instructions 1-12, live
ranges A-H plus the global-candidate stack pointer S) and runs the local
scheduler over it.  The paper states the resulting orders:

* basic blocks are traversed 4, 1, 5, 3, 2;
* live ranges are assigned C, G, B, A, E, D, H (S is skipped: it is a
  global-register candidate and "is not considered during live range
  partitioning").

Both orders are checked by ``tests/core/test_local_scheduler_figure6.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.webs import build_live_ranges, designate_global_candidates
from repro.core.partition.local import LocalScheduler
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import ILInstruction
from repro.ir.program import ILProgram
from repro.isa.opcodes import Opcode

#: The paper's expected assignment order of live ranges.
PAPER_ASSIGNMENT_ORDER = ["C", "G", "B", "A", "E", "D", "H"]
#: The paper's expected block traversal order.
PAPER_BLOCK_ORDER = ["bb4", "bb1", "bb5", "bb3", "bb2"]


def build_figure6_program() -> ILProgram:
    """The Figure 6 CFG, instruction for instruction.

    The figure's compound expressions (e.g. ``5: G = [S] + E``) are kept
    as single IL instructions — a load whose sources are the base and
    index — so the live-range structure matches the paper's exactly.
    """
    b = ProgramBuilder("figure6")
    S = b.stack_pointer_value("S")
    A, B, C, D, E, G, H = (b.value(n) for n in "ABCDEGH")

    b.block("bb1", count=20)
    b.emit(ILInstruction(Opcode.LDA, dest=C, imm=0))          # 1: C = 0
    b.emit(ILInstruction(Opcode.LDA, dest=E, imm=16))         # 2: E = 16
    b.emit(ILInstruction(Opcode.BNE, srcs=(C,), target="bb3"))
    b.current.set_successors(["bb3", "bb2"], [0.5, 0.5])

    b.block("bb2", count=10)
    b.emit(ILInstruction(Opcode.LDQ, dest=G, srcs=(S,), imm=8))   # 3: G = [S] + 8
    b.emit(ILInstruction(Opcode.LDQ, dest=H, srcs=(S,), imm=4))   # 4: H = [S] + 4
    b.emit(ILInstruction(Opcode.BR, target="bb4"))

    b.block("bb3", count=10)
    b.emit(ILInstruction(Opcode.LDQ, dest=G, srcs=(S, E)))        # 5: G = [S + E]
    b.emit(ILInstruction(Opcode.LDQ, dest=H, srcs=(S,), imm=12))  # 6: H = [S] + 12
    b.emit(ILInstruction(Opcode.ADDQ, dest=S, srcs=(H, E)))       # 7: S = H + E

    b.block("bb4", count=100)
    b.emit(ILInstruction(Opcode.ADDQ, dest=A, srcs=(G,), imm=10))  # 8: A = G + 10
    b.emit(ILInstruction(Opcode.MULQ, dest=B, srcs=(A, A)))        # 9: B = A x A
    b.emit(ILInstruction(Opcode.SRA, dest=G, srcs=(B, H)))         # 10: G = B / H
    b.emit(ILInstruction(Opcode.ADDQ, dest=C, srcs=(G, C)))        # 11: C = G + C
    b.emit(ILInstruction(Opcode.BNE, srcs=(C,), target="bb4"))
    b.current.set_successors(["bb4", "bb5"], [100.0 / 120.0, 20.0 / 120.0])

    b.block("bb5", count=20)
    b.emit(ILInstruction(Opcode.ADDQ, dest=D, srcs=(C, G)))        # 12: D = C + G
    b.ret()
    return b.build()


@dataclass
class Figure6Result:
    """The local scheduler's behaviour on Figure 6."""

    block_order: list[str]
    assignment_order: list[str]
    partition: dict[str, int]

    @property
    def matches_paper(self) -> bool:
        return (
            self.block_order == PAPER_BLOCK_ORDER
            and self.assignment_order == PAPER_ASSIGNMENT_ORDER
        )


def run_figure6(imbalance_threshold: int = 2) -> Figure6Result:
    """Run the local scheduler on Figure 6 and report the orders."""
    program = build_figure6_program()
    lrs = build_live_ranges(program)
    designate_global_candidates(lrs)
    scheduler = LocalScheduler(imbalance_threshold=imbalance_threshold)
    block_order = [blk.label for blk in scheduler.block_order(program)]
    partition = scheduler.partition(program, lrs)
    return Figure6Result(
        block_order=block_order,
        assignment_order=[lr.name for lr in scheduler.assignment_order],
        partition={
            lr.name: partition[lr.lrid]
            for lr in lrs
            if lr.lrid in partition
        },
    )


def _figure6_task(threshold: int, cache) -> Figure6Result:
    """One sweep point (worker-safe; the walk-through needs no cache)."""
    return run_figure6(threshold)


def run_figure6_sweep(
    thresholds: tuple[int, ...] = (0, 1, 2, 4, 8),
    jobs: int = 1,
    journal=None,
) -> list[tuple[int, Figure6Result]]:
    """Run the Figure 6 walk-through across imbalance thresholds.

    The worked example is deterministic per threshold, so the sweep is
    embarrassingly parallel; ``jobs != 1`` fans the points out to worker
    processes with identical results.  A ``journal``
    (:class:`~repro.robustness.journal.RunJournal`) makes the sweep
    resumable: journaled thresholds are reused verbatim and only missing
    points are recomputed.
    """
    from repro.perf.fingerprint import fingerprint
    from repro.perf.parallel import run_sweep

    results = run_sweep(
        _figure6_task,
        thresholds,
        jobs,
        keys=[
            (f"figure6:threshold={t}", fingerprint(("figure6/v1", t)))
            for t in thresholds
        ],
        journal=journal,
    )
    return list(zip(thresholds, results))


def main() -> None:  # pragma: no cover - CLI convenience
    result = run_figure6()
    print("Figure 6 local-scheduler walk-through")
    print(f"  block traversal order : {result.block_order}  (paper: {PAPER_BLOCK_ORDER})")
    print(
        f"  assignment order      : {result.assignment_order}  "
        f"(paper: {PAPER_ASSIGNMENT_ORDER})"
    )
    print(f"  matches paper         : {result.matches_paper}")
    print(f"  cluster assignment    : {result.partition}")
