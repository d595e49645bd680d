"""Fault-injection matrix: every injected fault surfaces as a typed
ReproError with cycle/cluster context — zero hangs, zero silent
completions."""

from dataclasses import replace

import pytest

from repro.core.registers import RegisterAssignment
from repro.errors import (
    InvariantViolation,
    ReproError,
    SimulationError,
    WatchdogTimeout,
)
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import fp_reg, int_reg
from repro.robustness.faultinject import (
    DropPendingEvents,
    DropTransferEntry,
    DuplicateTransferEntry,
    StuckFunctionalUnit,
)
from repro.uarch.config import dual_cluster_config, single_cluster_config
from repro.uarch.processor import Processor

from tests.uarch.helpers import trace_from_instructions


def add(dest, *srcs):
    return MachineInstruction(
        Opcode.ADDQ, dest=int_reg(dest), srcs=tuple(int_reg(s) for s in srcs)
    )


def divs(dest, *srcs):
    return MachineInstruction(
        Opcode.DIVS, dest=fp_reg(dest), srcs=tuple(fp_reg(s) for s in srcs)
    )


def operand_forward_trace(n=12):
    """Adds with split sources: each dual-distributes with an operand
    forward (even/odd assignment: even dest+src on cluster 0, odd src on
    cluster 1)."""
    return trace_from_instructions([add(4 + 2 * (i % 8), 0, 1) for i in range(n)])


def result_forward_trace(n=12):
    """Adds with even sources and odd dests: each dual-distributes with
    the result forwarded to the slave cluster."""
    return trace_from_instructions([add(1 + 2 * (i % 8), 0, 2) for i in range(n)])


def checked_dual_processor(**overrides):
    config = replace(dual_cluster_config(), self_check=True, **overrides)
    return Processor(config, RegisterAssignment.even_odd_dual())


def run_expecting(processor, trace, error_type, max_cycles=5_000):
    """The run must terminate with ``error_type`` — bounded, never a hang."""
    with pytest.raises(error_type) as info:
        processor.run(trace, max_cycles=max_cycles)
    return info.value


class TestDroppedTransferEntries:
    def test_dropped_operand_entry_raises_invariant_violation(self):
        processor = checked_dual_processor()
        fault = DropTransferEntry(at_cycle=1, cluster=0, kind="operand")
        processor.install_fault(fault)
        error = run_expecting(processor, operand_forward_trace(), InvariantViolation)
        assert fault.fired
        assert "operand" in error.message
        assert error.cycle is not None and error.cycle >= fault.fired_cycle
        assert error.cluster == 0
        assert error.diagnostics  # ring-buffer dump attached

    def test_dropped_result_entry_raises_invariant_violation(self):
        processor = checked_dual_processor()
        fault = DropTransferEntry(at_cycle=1, cluster=1, kind="result")
        processor.install_fault(fault)
        error = run_expecting(processor, result_forward_trace(), InvariantViolation)
        assert fault.fired
        assert "result" in error.message
        assert error.cluster == 1

    def test_without_self_check_still_no_hang(self):
        # The fault model is a *silently wrong* completion without
        # self-check; the point is it must never hang.
        config = dual_cluster_config()
        processor = Processor(config, RegisterAssignment.even_odd_dual())
        fault = DropTransferEntry(at_cycle=1, cluster=0, kind="operand")
        processor.install_fault(fault)
        processor.run(operand_forward_trace(), max_cycles=5_000)


class TestDuplicateTransferEntries:
    @pytest.mark.parametrize("kind", ["operand", "result"])
    def test_bogus_entry_raises_invariant_violation(self, kind):
        processor = checked_dual_processor()
        fault = DuplicateTransferEntry(at_cycle=2, cluster=1, kind=kind)
        processor.install_fault(fault)
        error = run_expecting(processor, operand_forward_trace(), InvariantViolation)
        assert fault.fired
        assert "not in flight" in error.message
        assert error.cluster == 1
        assert error.context["seq"] == DuplicateTransferEntry.BOGUS_SEQ


class TestStuckFunctionalUnit:
    def test_stuck_divider_raises_watchdog_timeout(self):
        config = replace(single_cluster_config(), progress_window=300)
        processor = Processor(config, RegisterAssignment.single_cluster())
        fault = StuckFunctionalUnit(at_cycle=0, cluster=0)
        processor.install_fault(fault)
        trace = trace_from_instructions([divs(2, 1, 1), divs(3, 2, 2)])
        error = run_expecting(
            processor, trace, WatchdogTimeout, max_cycles=1_000_000
        )
        assert fault.fired
        assert "progress" in error.message
        assert error.diagnostics


class TestDeadEventBus:
    def test_dropped_events_raise_deadlock_with_dump(self):
        """Regression for the deadlock path: it must emit the diagnostic
        ring-buffer dump, not a bare message.

        Single cluster: no transfer buffers, so no replay exception can
        rescue the machine — dropping completions wedges it into the
        no-pending-events state deterministically."""
        processor = Processor(
            single_cluster_config(), RegisterAssignment.single_cluster()
        )
        fault = DropPendingEvents(at_cycle=0)
        processor.install_fault(fault)
        trace = trace_from_instructions([add(2, 1, 1), add(3, 2, 2)])
        error = run_expecting(processor, trace, SimulationError)
        assert fault.fired
        assert "deadlock" in error.message
        assert error.cycle is not None
        assert error.seq is not None  # the wedged rob-head instruction
        # The dump carries machine state and the recent-event ring.
        dump = "\n".join(error.diagnostics)
        assert "rob=" in dump
        assert "events" in dump
        assert "cluster 0" in dump

    def test_dual_cluster_dead_bus_hits_the_watchdog(self):
        # On a multicluster machine the dead bus provokes a replay storm
        # (fetch/dispatch activity every threshold cycles), so it is the
        # cycle-budget watchdog that ends the run — still a typed error.
        processor = checked_dual_processor()
        fault = DropPendingEvents(at_cycle=3)
        processor.install_fault(fault)
        error = run_expecting(processor, operand_forward_trace(), WatchdogTimeout)
        assert fault.fired
        assert error.diagnostics


class TestMatrixIsTyped:
    def test_every_injector_yields_a_repro_error(self):
        """The acceptance matrix: injector -> typed error, under one
        bounded driver.  No fault may hang or complete silently."""
        cases = [
            (
                checked_dual_processor(),
                DropTransferEntry(1, 0, "operand"),
                operand_forward_trace(),
            ),
            (
                checked_dual_processor(),
                DropTransferEntry(1, 1, "result"),
                result_forward_trace(),
            ),
            (
                checked_dual_processor(),
                DuplicateTransferEntry(2, 0, "operand"),
                operand_forward_trace(),
            ),
            (checked_dual_processor(), DropPendingEvents(3), operand_forward_trace()),
        ]
        for processor, fault, trace in cases:
            processor.install_fault(fault)
            error = run_expecting(processor, trace, ReproError)
            assert fault.fired, f"{type(fault).__name__} never fired"
            assert error.cycle is not None
            assert error.diagnostics


class TestWorkerFaultSelector:
    def test_worker_fault_clears_by_dispatch(self):
        from repro.robustness.faultinject import FaultPlan, FaultSpec

        plan = FaultPlan(
            specs=(
                FaultSpec(kind="worker_stall", benchmark="compress",
                          part="single", clear_after=1),
                FaultSpec(kind="stuck_divider", benchmark="ora",
                          part="single"),
            )
        )
        # Dispatch space: active at dispatch 0, cleared at 1.
        assert plan.worker_fault("compress", "single", 0) == "worker_stall"
        assert plan.worker_fault("compress", "single", 1) is None
        assert plan.worker_fault("compress", "dual_none", 0) is None
        # The families never cross: a simulation fault is invisible to
        # the worker selector.
        assert plan.worker_fault("ora", "single", 0) is None
