"""Front-end behaviour: fetch groups, I-cache stalls, and misprediction
penalties."""

from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.obs.trace import TraceRecorder
from repro.uarch.config import (
    default_assignment_for,
    single_cluster_config,
)
from repro.uarch.processor import Processor, SimulationError, simulate

from tests.uarch.helpers import issue_cycles, run_trace, trace_from_instructions


def add(dest=0):
    return MachineInstruction(Opcode.ADDQ, dest=int_reg(dest), srcs=(int_reg(28), int_reg(28)))


class TestIcache:
    def test_cold_start_costs_memory_latency(self):
        p, result = run_trace([add()], single_cluster_config())
        cycles = issue_cycles(p)
        # Fetch waits ~16 cycles for the first line.
        assert cycles[(0, "master")] >= 16

    def test_warm_lines_fetch_immediately(self):
        # 16 instructions span two 32-byte lines; once both lines are warm
        # (trace loops via seq), later fetches don't stall.
        instrs = [add(2 * (i % 14)) for i in range(8)]
        p, result = run_trace(instrs, single_cluster_config())
        assert result.stats.icache_misses >= 1
        assert result.stats.icache_misses <= 2

    def test_icache_miss_rate_reported(self):
        _p, result = run_trace([add() for _ in range(16)], single_cluster_config())
        assert 0.0 < result.stats.icache_miss_rate <= 1.0


class TestMisprediction:
    def _branch_trace(self, predict_wrong: bool):
        """One conditional branch followed by an independent add."""
        br = MachineInstruction(Opcode.BNE, srcs=(int_reg(28),), target="b0")
        instrs = [br, add(2)]
        # Initial counters are weakly taken: actual taken=True is a correct
        # prediction, taken=False a misprediction.
        return trace_from_instructions(instrs, taken={0: not predict_wrong})

    def test_mispredict_costs_more_than_correct(self):
        config = single_cluster_config()
        correct = Processor(config, default_assignment_for(config))
        correct.recorder = TraceRecorder.memory()
        correct.run(self._branch_trace(predict_wrong=False))
        wrong = Processor(config, default_assignment_for(config))
        wrong.recorder = TraceRecorder.memory()
        wrong.run(self._branch_trace(predict_wrong=True))
        gap_ok = issue_cycles(correct)[(1, "master")] - issue_cycles(correct)[(0, "master")]
        gap_bad = issue_cycles(wrong)[(1, "master")] - issue_cycles(wrong)[(0, "master")]
        assert gap_bad > gap_ok

    def test_mispredict_counted(self):
        _p, result = run_trace(
            [MachineInstruction(Opcode.BNE, srcs=(int_reg(28),), target="b0"), add(2)],
            single_cluster_config(),
            taken={0: False},
        )
        assert result.stats.branch_mispredictions == 1

    def test_unconditional_flow_never_mispredicts(self):
        instrs = [MachineInstruction(Opcode.BR, target="b0"), add(2)]
        _p, result = run_trace(instrs, single_cluster_config())
        assert result.stats.branch_predictions == 0
        assert result.stats.branch_mispredictions == 0


class TestRunHarness:
    def test_simulate_wrapper_defaults_assignment(self):
        trace = trace_from_instructions([add()])
        result = simulate(trace, single_cluster_config())
        assert result.config_name == "single-8way"
        assert result.cycles == result.stats.cycles

    def test_cycle_limit_guard(self):
        import pytest

        trace = trace_from_instructions([add()])
        config = single_cluster_config()
        processor = Processor(config, default_assignment_for(config))
        with pytest.raises(SimulationError):
            processor.run(trace, max_cycles=3)

    def test_empty_trace(self):
        config = single_cluster_config()
        processor = Processor(config, default_assignment_for(config))
        result = processor.run([])
        assert result.stats.instructions == 0
        assert result.cycles == 0

    def test_issue_disorder_positive_with_mixed_latencies(self):
        # A slow head followed by independent fast ops: the fast ops issue
        # ahead of nothing (they're younger), so disorder comes from the
        # slow op issuing after younger ones only if it is older... build
        # the inverse: old slow chain, young independents that overtake.
        slow = MachineInstruction(Opcode.MULQ, dest=int_reg(0), srcs=(int_reg(0), int_reg(0)))
        instrs = [slow, slow, add(2), add(4), add(6)]
        _p, result = run_trace(instrs, single_cluster_config())
        assert result.stats.issue_disorder > 0.0
