"""Shared helpers for processor tests."""

import contextlib
import sys

import pytest

import repro.uarch.engine
from repro.core.registers import RegisterAssignment
from repro.ir.machine_program import MachineProgram
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.obs.trace import TraceRecorder
from repro.uarch.config import ProcessorConfig, default_assignment_for
from repro.uarch.engine import BatchedProcessor
from repro.uarch.processor import Processor
from repro.workloads.trace import DynamicInstruction

#: The two models the identity tests compare: the reference model is the
#: oracle, the batched one is what ``make_processor`` builds.
MODELS = {"reference": Processor, "batched": BatchedProcessor}


@contextlib.contextmanager
def using_model(model: type):
    """Build ``model`` wherever the program calls ``make_processor``.

    Every loaded ``repro`` module that imported the factory gets a
    stand-in, so the harness, ``simulate`` and the experiment drivers
    run their full paths on ``model``.  Yields a list that gains the
    class of every processor built inside the block.
    """
    factory = repro.uarch.engine.make_processor
    built = []

    def make(config, assignment):
        built.append(model)
        return model(config, assignment)

    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "make_processor", None) is factory:
                patch.setattr(module, "make_processor", make)
        yield built


def trace_from_instructions(
    instructions: list[MachineInstruction],
    addresses: dict[int, int] | None = None,
    taken: dict[int, bool] | None = None,
) -> list[DynamicInstruction]:
    """Wrap a straight-line instruction list into a trace."""
    machine = MachineProgram("test")
    block = machine.add_block("b0")
    for instr in instructions:
        block.add(instr)
    machine.assign_pcs()
    trace = []
    addresses = addresses or {}
    taken = taken or {}
    for i, (instr, meta) in enumerate(machine.all_instructions()):
        trace.append(
            DynamicInstruction(
                instr,
                meta,
                i,
                address=addresses.get(i, 0x9000 if instr.opcode.is_memory else None),
                taken=taken.get(i, True if instr.opcode.is_control else None),
            )
        )
    return trace


def make_trace(n: int = 400) -> list[DynamicInstruction]:
    """A mix of dependent adds and slow multiplies on the even/odd dual
    machine's registers, so the run spans many cycles and keeps
    nontrivial state in flight."""
    instrs = []
    for i in range(n):
        if i % 7 == 3:
            instrs.append(
                MachineInstruction(
                    Opcode.MULQ, dest=int_reg(2), srcs=(int_reg(2), int_reg(4))
                )
            )
        else:
            instrs.append(
                MachineInstruction(
                    Opcode.ADDQ,
                    dest=int_reg(2 + 2 * (i % 8)),
                    srcs=(int_reg(0), int_reg(1 + 2 * (i % 4))),
                )
            )
    return trace_from_instructions(instrs)


def run_trace(
    instructions: list[MachineInstruction],
    config: ProcessorConfig,
    assignment: RegisterAssignment | None = None,
    addresses: dict[int, int] | None = None,
    taken: dict[int, bool] | None = None,
    log_events: bool = True,
):
    """Run a straight-line trace; returns (processor, result)."""
    trace = trace_from_instructions(instructions, addresses, taken)
    processor = Processor(config, assignment or default_assignment_for(config))
    if log_events:
        processor.recorder = TraceRecorder.memory()
    result = processor.run(trace)
    return processor, result


def issue_cycles(processor, kinds=("issue", "reissue")) -> dict[tuple[int, str], int]:
    """(seq, role) -> issue cycle, from the event log."""
    cycles = {}
    for cycle, kind, seq, role, _cluster in processor.recorder.events:
        if kind in kinds and (seq, role) not in cycles:
            cycles[(seq, role)] = cycle
    return cycles


def completion_cycles(processor) -> dict[tuple[int, str], int]:
    cycles = {}
    for cycle, kind, seq, role, _cluster in processor.recorder.events:
        if kind == "complete":
            cycles[(seq, role)] = cycle
    return cycles
