"""Loop unrolling (the paper's Section 6 future-work transform).

"Loop unrolling ... could also be used to generate a code schedule in
which multiple iterations of a loop were interleaved, with each iteration
scheduled to use a separate cluster of a multicluster processor."

This pass unrolls *self loops* — single-block natural loops, the shape the
synthetic workloads' innermost loops take — by a factor ``k``: the body is
replicated ``k`` times, iteration-private values are renamed per copy, and
loop-carried values thread from copy to copy.  Intermediate back-edge
branches are dropped (the unrolled body iterates ``k`` iterations per
trip), and the surviving back-edge branch keeps the original behaviour
annotation; the trace generator's trip counts then describe *unrolled*
trips, so callers should divide trip counts by ``k`` in the behaviour
model if they want identical dynamic iteration counts.

After unrolling, the local scheduler sees ``k`` mostly-independent copies
and can place alternate iterations on alternate clusters — the paper's
suggestion — which the ``unroll`` ablation experiment measures.
"""

from __future__ import annotations

from repro.ir.instructions import ILInstruction
from repro.ir.program import ILProgram
from repro.ir.values import ILValue


def find_self_loops(program: ILProgram) -> list[str]:
    """Labels of blocks that branch back to themselves."""
    return [
        block.label
        for block in program.cfg.blocks()
        if block.label in block.succ_labels
        and block.terminator is not None
        and block.terminator.opcode.is_conditional_branch
    ]


def unroll_self_loop(program: ILProgram, label: str, factor: int) -> bool:
    """Unroll the self loop at ``label`` by ``factor`` in place.

    Returns False (and changes nothing) if the block is not a conditional
    self loop.  Instruction uids are renumbered on success.
    """
    if factor < 2:
        return False
    block = program.cfg.block(label)
    term = block.terminator
    if term is None or not term.opcode.is_conditional_branch or term.target != label:
        return False

    body = block.body

    new_instructions: list[ILInstruction] = []
    # Values carried from the previous copy: start with the originals
    # (reaching from outside the loop or the previous unrolled trip).
    current: dict[ILValue, ILValue] = {}

    for copy_index in range(factor):
        copy_map: dict[ILValue, ILValue] = {}
        for instr in body:
            srcs = tuple(copy_map.get(s, current.get(s, s)) for s in instr.srcs)
            dest = instr.dest
            if dest is not None:
                if copy_index < factor - 1:
                    renamed = program.new_value(
                        f"{dest.name}.it{copy_index}", dest.rclass
                    )
                else:
                    # The final copy writes the original values so that
                    # uses after the loop see the right names.
                    renamed = dest
                copy_map[dest] = renamed
                new_instructions.append(instr.replace(dest=renamed, srcs=srcs))
            else:
                new_instructions.append(instr.replace(srcs=srcs))
        # Next copy reads this copy's definitions for loop-carried values.
        for original, renamed in copy_map.items():
            current[original] = renamed
        del copy_map

    # Keep a single back-edge branch, reading the latest copy of its
    # condition value.
    cond_srcs = tuple(current.get(s, s) for s in term.srcs)
    new_instructions.append(term.replace(srcs=cond_srcs))

    block.instructions = new_instructions
    program.renumber()
    return True


def unroll_program(program: ILProgram, factor: int = 2) -> int:
    """Unroll every conditional self loop; returns loops unrolled."""
    count = 0
    for label in find_self_loops(program):
        if unroll_self_loop(program, label, factor):
            count += 1
    return count
