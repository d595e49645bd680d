"""Tests for ``copy.deepcopy`` of an IL program (``ILProgram.__deepcopy__``)."""

import copy

import pytest

from repro.ir.basic_block import BasicBlock
from repro.ir.cfg import ControlFlowGraph
from repro.ir.instructions import ILInstruction
from repro.ir.program import ILProgram
from repro.ir.values import ILValue
from repro.perf.fingerprint import _canon_program
from repro.workloads.kernels import KERNELS
from repro.workloads.spec92 import SPEC92

BUILDERS = {**SPEC92, **KERNELS}


@pytest.fixture(params=sorted(SPEC92) + sorted(KERNELS))
def program(request) -> ILProgram:
    return BUILDERS[request.param]().program


def test_copy_is_equal(program):
    twin = copy.deepcopy(program)
    assert twin.format() == program.format()
    assert _canon_program(twin) == _canon_program(program)


def test_value_sharing_is_preserved(program):
    """Two instructions that name one value name one new value."""
    twin = copy.deepcopy(program)
    assert not {id(v) for v in twin.values} & {id(v) for v in program.values}
    for instr in twin.all_instructions():
        for value in instr.values():
            assert value is twin.values[value.vid]
    for name, value in twin._by_name.items():
        assert value is twin.values[value.vid] and twin.value_named(name) is value


def test_mutating_the_copy_leaves_the_original(program):
    before = _canon_program(program)
    twin = copy.deepcopy(program)
    for block in twin.cfg.blocks():
        for instr in block.instructions:
            instr.srcs, instr.imm, instr.target = (), -1, "nowhere"
        block.instructions.clear()
        block.succ_labels.append("nowhere")
        for label in block.edge_probs:
            block.edge_probs[label] = 0.0
        block.profile_count = -1
    for value in twin.values:
        value.name = "renamed"
    twin.new_value("fresh")
    assert _canon_program(program) == before


def test_memo_keeps_a_program_and_its_values_together(program):
    value = program.values[0]
    twin, twin_value = copy.deepcopy((program, value))
    assert twin_value is twin.values[0] and twin_value is not value
    # And in the other order, the program reuses the value copied first.
    twin_value, twin = copy.deepcopy((value, program))
    assert twin.values[0] is twin_value


def test_copy_has_every_field(program):
    """A field added to the IL classes without a line in
    ``ILProgram.__deepcopy__`` would vanish from every compile."""
    twin = copy.deepcopy(program)
    assert vars(twin).keys() == vars(program).keys()
    assert vars(twin.cfg).keys() == vars(program.cfg).keys()
    assert isinstance(twin.cfg, ControlFlowGraph)
    for block, twin_block in zip(program.cfg.blocks(), twin.cfg.blocks()):
        assert isinstance(twin_block, BasicBlock)
        assert vars(twin_block).keys() == vars(block).keys()
        assert vars(twin_block) == {
            **vars(block),
            "instructions": twin_block.instructions,
        }
        for instr, twin_instr in zip(block.instructions, twin_block.instructions):
            for slot in ILInstruction.__slots__:
                if slot not in ("dest", "srcs"):
                    assert getattr(twin_instr, slot) == getattr(instr, slot), slot
            assert twin_instr.format() == instr.format()
    for value, twin_value in zip(program.values, twin.values):
        for slot in ILValue.__slots__:
            assert getattr(twin_value, slot) == getattr(value, slot), slot
