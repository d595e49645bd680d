"""Behavioural tests of the single-cluster processor model."""

from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg, fp_reg
from repro.uarch.config import single_cluster_config

from tests.uarch.helpers import completion_cycles, issue_cycles, run_trace


def mul(dest, a, b):
    return MachineInstruction(Opcode.MULQ, dest=int_reg(dest), srcs=(int_reg(a), int_reg(b)))


def add(dest, a, b):
    return MachineInstruction(Opcode.ADDQ, dest=int_reg(dest), srcs=(int_reg(a), int_reg(b)))


class TestDependenceTiming:
    def test_mulq_chain_spaced_by_latency(self):
        instrs = [mul(0, 0, 0) for _ in range(6)]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = issue_cycles(p)
        gaps = [
            cycles[(i + 1, "master")] - cycles[(i, "master")]
            for i in range(5)
        ]
        assert all(g == 6 for g in gaps)  # integer multiply latency

    def test_addq_chain_back_to_back(self):
        instrs = [add(0, 0, 0) for _ in range(6)]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = issue_cycles(p)
        gaps = [cycles[(i + 1, "master")] - cycles[(i, "master")] for i in range(5)]
        assert all(g == 1 for g in gaps)

    def test_independent_ops_issue_same_cycle(self):
        instrs = [add(2 * i, 28, 28) for i in range(4)]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = issue_cycles(p)
        assert len({cycles[(i, "master")] for i in range(4)}) == 1

    def test_load_use_delay(self):
        """Load-to-use is 2 cycles on a hit (1 + load-delay slot)."""
        ld = MachineInstruction(Opcode.LDQ, dest=int_reg(0), srcs=(int_reg(2),))
        use = add(4, 0, 0)
        # Warm the D-cache line first with an independent load.
        warm = MachineInstruction(Opcode.LDQ, dest=int_reg(6), srcs=(int_reg(2),))
        p, _ = run_trace([warm, ld, use], single_cluster_config(),
                         addresses={0: 0x9000, 1: 0x9000})
        cycles = issue_cycles(p)
        assert cycles[(2, "master")] - cycles[(1, "master")] == 2

    def test_dcache_miss_adds_memory_latency(self):
        ld = MachineInstruction(Opcode.LDQ, dest=int_reg(0), srcs=(int_reg(2),))
        use = add(4, 0, 0)
        p, _ = run_trace([ld, use], single_cluster_config(), addresses={0: 0x50000})
        cycles = issue_cycles(p)
        assert cycles[(1, "master")] - cycles[(0, "master")] == 18  # 16 + 2


class TestIssueLimits:
    def test_eight_wide_integer_issue(self):
        instrs = [add(2 * (i % 14), 28, 28) for i in range(16)]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = issue_cycles(p)
        by_cycle = {}
        for (seq, _r), c in cycles.items():
            by_cycle.setdefault(c, []).append(seq)
        assert max(len(v) for v in by_cycle.values()) == 8

    def test_fp_limited_to_four(self):
        instrs = [
            MachineInstruction(Opcode.ADDT, dest=fp_reg(i), srcs=(fp_reg(28), fp_reg(28)))
            for i in range(8)
        ]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = issue_cycles(p)
        by_cycle = {}
        for (seq, _r), c in cycles.items():
            by_cycle.setdefault(c, []).append(seq)
        assert max(len(v) for v in by_cycle.values()) == 4

    def test_loads_limited_to_four(self):
        instrs = [
            MachineInstruction(Opcode.LDQ, dest=int_reg(2 * i), srcs=(int_reg(28),))
            for i in range(8)
        ]
        p, _ = run_trace(
            instrs, single_cluster_config(), addresses={i: 0x9000 + 8 * i for i in range(8)}
        )
        cycles = issue_cycles(p)
        by_cycle = {}
        for (seq, _r), c in cycles.items():
            by_cycle.setdefault(c, []).append(seq)
        assert max(len(v) for v in by_cycle.values()) == 4

    def test_fp_divider_not_pipelined(self):
        instrs = [
            MachineInstruction(Opcode.DIVS, dest=fp_reg(2 * i), srcs=(fp_reg(28), fp_reg(28)))
            for i in range(3)
        ]
        p, _ = run_trace(instrs, single_cluster_config())
        cycles = sorted(c for (_s, _r), c in issue_cycles(p).items())
        # Two dividers on the single-cluster machine: first two together,
        # the third waits a full 8-cycle divide.
        assert cycles[1] - cycles[0] <= 1
        assert cycles[2] - cycles[0] == 8


class TestRetirement:
    def test_all_instructions_retire(self):
        instrs = [add(0, 0, 0) for _ in range(20)]
        _p, result = run_trace(instrs, single_cluster_config())
        assert result.stats.instructions == 20

    def test_retirement_in_program_order(self):
        instrs = [mul(0, 0, 0), add(2, 4, 4)]
        p, _ = run_trace(instrs, single_cluster_config())
        retire = [(c, seq) for c, kind, seq, _r, _cl in p.recorder.events if kind == "retire"]
        # The add completes long before the mul but retires after it.
        assert retire[0][1] == 0 and retire[1][1] == 1
        assert retire[0][0] <= retire[1][0]

    def test_retire_width_bounds_throughput(self):
        instrs = [add(2 * (i % 14), 28, 28) for i in range(64)]
        p, _ = run_trace(instrs, single_cluster_config())
        retire_cycles = [c for c, kind, *_ in p.recorder.events if kind == "retire"]
        by_cycle = {}
        for c in retire_cycles:
            by_cycle[c] = by_cycle.get(c, 0) + 1
        assert max(by_cycle.values()) <= 8


class TestMemoryDependences:
    def test_load_waits_for_same_address_store(self):
        blocker = mul(0, 0, 0)  # the store's value comes from a slow mul
        store_dep = MachineInstruction(Opcode.STQ, srcs=(int_reg(0), int_reg(2)))
        load = MachineInstruction(Opcode.LDQ, dest=int_reg(4), srcs=(int_reg(2),))
        p, _ = run_trace(
            [blocker, store_dep, load],
            single_cluster_config(),
            addresses={1: 0x9100, 2: 0x9100},
        )
        cycles = issue_cycles(p)
        done = completion_cycles(p)
        assert cycles[(2, "master")] >= done[(1, "master")]

    def test_load_independent_of_other_address_store(self):
        blocker = mul(0, 0, 0)
        store_dep = MachineInstruction(Opcode.STQ, srcs=(int_reg(0), int_reg(2)))
        load = MachineInstruction(Opcode.LDQ, dest=int_reg(4), srcs=(int_reg(2),))
        p, _ = run_trace(
            [blocker, store_dep, load],
            single_cluster_config(),
            addresses={1: 0x9100, 2: 0xA200},
        )
        cycles = issue_cycles(p)
        # The load does not wait for the mul-fed store.
        assert cycles[(2, "master")] < cycles[(1, "master")]


class TestBranches:
    def test_mispredict_stalls_fetch(self):
        """An unpredictable branch delays younger instructions."""
        br = MachineInstruction(Opcode.BNE, srcs=(int_reg(0),), target="b0")
        younger = add(2, 4, 4)
        # Run twice: once with the branch "correctly predicted" is not
        # controllable directly, so compare the gap against a no-branch run.
        p, _ = run_trace([br, younger], single_cluster_config(), taken={0: False})
        cycles = issue_cycles(p)
        # Weakly-taken initial counters predict taken; actual is not-taken:
        # a misprediction. The younger instruction is fetched only after
        # the branch executes.
        assert cycles[(1, "master")] > cycles[(0, "master")] + 1

    def test_correct_prediction_no_stall(self):
        """A repeated static branch trains the predictor and stops stalling."""
        from repro.ir.machine_program import MachineProgram
        from repro.uarch.config import default_assignment_for
        from repro.uarch.processor import Processor
        from repro.workloads.trace import DynamicInstruction

        machine = MachineProgram("loop")
        block = machine.add_block("b0")
        block.add(add(2, 28, 28))
        block.add(MachineInstruction(Opcode.BEQ, srcs=(int_reg(28),), target="b0"))
        machine.assign_pcs()
        pairs = list(machine.all_instructions())
        trace = []
        for i in range(30):
            for instr, meta in pairs:
                taken = False if instr.opcode.is_control else None
                trace.append(DynamicInstruction(instr, meta, len(trace), None, taken))
        config = single_cluster_config()
        processor = Processor(config, default_assignment_for(config))
        result = processor.run(trace)
        # The same static branch repeats not-taken: after cold-start
        # mispredictions the predictor locks on.
        assert result.stats.branch_mispredictions <= 3
        assert result.stats.branch_predictions == 30
