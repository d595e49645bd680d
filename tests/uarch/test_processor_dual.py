"""Behavioural tests of the dual-cluster machine: distribution protocols,
transfer buffers, and replay exceptions (Section 2.1)."""

from repro.core.registers import RegisterAssignment
from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.uarch.config import dual_cluster_config, with_buffer_entries

from tests.uarch.helpers import completion_cycles, issue_cycles, run_trace


def add(dest, *srcs):
    return MachineInstruction(Opcode.ADDQ, dest=int_reg(dest), srcs=tuple(int_reg(s) for s in srcs))


def mul(dest, *srcs):
    return MachineInstruction(Opcode.MULQ, dest=int_reg(dest), srcs=tuple(int_reg(s) for s in srcs))


class TestDistributionCounts:
    def test_single_cluster_instruction_one_uop(self):
        p, result = run_trace([add(4, 0, 2)], dual_cluster_config())
        assert result.stats.dual_distributed == 0
        assert result.stats.uops_executed == 1

    def test_split_sources_two_uops(self):
        p, result = run_trace([add(4, 0, 1)], dual_cluster_config())
        assert result.stats.dual_distributed == 1
        assert result.stats.uops_executed == 2
        assert result.stats.operand_forwards == 1

    def test_cross_cluster_dest_result_forward(self):
        p, result = run_trace([add(1, 0, 2)], dual_cluster_config())
        assert result.stats.dual_distributed == 1
        assert result.stats.result_forwards == 1

    def test_issue_counts_per_cluster(self):
        p, result = run_trace([add(4, 0, 1)], dual_cluster_config())
        assert result.stats.clusters[0].issued == 1
        assert result.stats.clusters[1].issued == 1


class TestOperandForwardProtocol:
    def test_slave_issues_before_master(self):
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        cycles = issue_cycles(p)
        assert cycles[(0, "slave")] < cycles[(0, "master")]

    def test_master_issues_one_cycle_after_slave(self):
        """Section 2.1: 'the master copy [can] be issued as soon as the
        next cycle' after the slave."""
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        cycles = issue_cycles(p)
        assert cycles[(0, "master")] == cycles[(0, "slave")] + 1

    def test_forwarded_operand_waits_for_producer(self):
        # The odd-side producer is slow (mulq): the slave cannot issue
        # until it completes.
        producer = mul(1, 1, 1)
        consumer = add(4, 0, 1)
        p, _ = run_trace([producer, consumer], dual_cluster_config())
        cycles = issue_cycles(p)
        done = completion_cycles(p)
        assert cycles[(1, "slave")] >= done[(0, "master")]


class TestResultForwardProtocol:
    def test_slave_issues_after_master_for_result(self):
        p, _ = run_trace([add(1, 0, 2)], dual_cluster_config())
        cycles = issue_cycles(p)
        assert cycles[(0, "slave")] == cycles[(0, "master")] + 1

    def test_dependent_in_slave_cluster_waits_for_slave_write(self):
        producer = add(1, 0, 2)      # dual: result forwarded to cluster 1
        consumer = add(3, 1, 1)      # cluster 1 reads r1
        p, _ = run_trace([producer, consumer], dual_cluster_config())
        cycles = issue_cycles(p)
        done = completion_cycles(p)
        assert cycles[(1, "master")] >= done[(0, "slave")]

    def test_result_forward_costs_one_cycle_vs_local(self):
        local = [add(0, 0, 2), add(4, 0, 0)]
        remote = [add(1, 0, 2), add(3, 1, 1)]
        p1, _ = run_trace(local, dual_cluster_config())
        p2, _ = run_trace(remote, dual_cluster_config())
        gap_local = issue_cycles(p1)[(1, "master")] - issue_cycles(p1)[(0, "master")]
        gap_remote = issue_cycles(p2)[(1, "master")] - issue_cycles(p2)[(0, "master")]
        assert gap_remote > gap_local


class TestGlobalDestination:
    def assignment(self):
        return RegisterAssignment.even_odd_dual(extra_globals=(int_reg(8),))

    def test_global_dest_two_writes(self):
        p, result = run_trace(
            [MachineInstruction(Opcode.ADDQ, dest=int_reg(8), srcs=(int_reg(0), int_reg(2)))],
            dual_cluster_config(),
            assignment=self.assignment(),
        )
        assert result.stats.dual_distributed == 1
        assert result.stats.result_forwards == 1

    def test_consumers_in_both_clusters_proceed(self):
        instrs = [
            MachineInstruction(Opcode.ADDQ, dest=int_reg(8), srcs=(int_reg(0), int_reg(2))),
            add(4, 8, 8),   # even cluster reads the global
            add(5, 8, 8),   # odd cluster reads the global
        ]
        p, result = run_trace(instrs, dual_cluster_config(), assignment=self.assignment())
        assert result.stats.instructions == 3
        cycles = issue_cycles(p)
        done = completion_cycles(p)
        # The odd-side consumer waits for the slave's register write.
        assert cycles[(2, "master")] >= done[(0, "slave")]
        # The even-side consumer only waits for the master.
        assert cycles[(1, "master")] >= done[(0, "master")]


class TestTransferBufferLimits:
    def test_operand_buffer_fills_and_stalls(self):
        """More concurrent forwards than buffer entries: slaves stall."""
        config = with_buffer_entries(dual_cluster_config(), 2)
        # One slow producer on the even side; many instructions need an
        # odd-side operand forwarded to the even side while the master
        # also waits on the slow chain value.
        instrs = [mul(0, 0, 0)]
        for i in range(6):
            instrs.append(add(2 + 2 * ((i + 1) % 8), 0, 1))  # even dest, reads r0 (slow) + r1 (fwd)
        p, result = run_trace(instrs, config)
        opbuf = p.clusters[0].operand_buffer
        assert opbuf.stats.peak_occupancy <= 2
        assert opbuf.stats.full_stall_cycles > 0

    def test_deeper_buffers_remove_stalls(self):
        config = with_buffer_entries(dual_cluster_config(), 16)
        instrs = [mul(0, 0, 0)]
        for i in range(6):
            instrs.append(add(2 + 2 * ((i + 1) % 8), 0, 1))
        p, _ = run_trace(instrs, config)
        assert p.clusters[0].operand_buffer.stats.full_stall_cycles == 0


class TestReplayException:
    def _inversion_trace(self):
        """Priority inversion: young pairs grab all operand entries while
        an older slave's operand is still being computed."""
        instrs = []
        # Old instruction whose forwarded operand (r1) comes from a very
        # slow producer chain on the odd side.
        instrs.append(mul(1, 1, 1))
        instrs.append(mul(1, 1, 1))
        instrs.append(mul(1, 1, 1))
        old = add(4, 0, 1)  # slave must forward r1 (late!)
        instrs.append(old)
        # Young pairs whose operands are ready instantly but whose masters
        # wait on the same slow chain -> they hold entries for a long time.
        for i in range(10):
            instrs.append(add(6 + 2 * (i % 8) % 22, 1, 3))
        return instrs

    def test_replay_fires_under_pressure(self):
        config = with_buffer_entries(dual_cluster_config(), 2)
        instrs = []
        # Slow odd-side chain.
        instrs.extend([mul(1, 1, 1)] * 4)
        # Many young dual instructions: master needs r1 (slow chain), slave
        # forwards r3 (ready) -> operand entries held for the chain latency.
        for i in range(12):
            instrs.append(add(2 * (i % 10) + 4 - 4, 1, 2))  # odd dest? keep mix
        for i in range(12):
            instrs.append(add(1 + 2 * (i % 8), 2, 1))
        p, result = run_trace(instrs, config)
        # Under 2-entry buffers with long-held entries, replays may fire;
        # at minimum the machine must finish correctly.
        assert result.stats.instructions == len(instrs)

    def test_replayed_instructions_reexecute_correctly(self):
        config = with_buffer_entries(dual_cluster_config(), 1)
        instrs = [mul(1, 1, 1), mul(1, 1, 1)]
        for i in range(10):
            instrs.append(add(2 + 2 * (i % 8), 1, 3))  # even dest, fwd r1 or r3
        p, result = run_trace(instrs, config)
        assert result.stats.instructions == len(instrs)
        # Every instruction retired exactly once.
        retires = [seq for _c, kind, seq, _r, _cl in p.recorder.events if kind == "retire"]
        assert sorted(retires) == list(range(len(instrs)))
        assert retires == sorted(retires)


class TestHomelessInstructions:
    def test_register_free_control_alternates(self):
        br = MachineInstruction(Opcode.BR, target="b0")
        trace_instrs = [br, br]
        p, _ = run_trace(trace_instrs, dual_cluster_config())
        clusters = {cl for _c, kind, _s, _r, cl in p.recorder.events if kind == "issue"}
        assert clusters == {0, 1}
