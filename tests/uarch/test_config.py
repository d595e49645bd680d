"""Tests for machine configurations (Table 1, experiment E1)."""

from repro.core.registers import RegisterAssignment
from repro.isa.opcodes import Opcode
from repro.uarch.config import (
    DUAL_ISSUE_RULES,
    LatencyModel,
    SINGLE_ISSUE_RULES,
    default_assignment_for,
    dual_cluster_2way_config,
    dual_cluster_config,
    single_cluster_4way_config,
    single_cluster_config,
    with_buffer_entries,
)


class TestTable1IssueRules:
    def test_single_cluster_row(self):
        """Row 1 of Table 1: 8 total, 8 int, 4 fp, 4 ld/st, 4 control."""
        rules = SINGLE_ISSUE_RULES
        assert rules.total == 8
        assert rules.integer == 8
        assert rules.floating_point == 4
        assert rules.memory == 4
        assert rules.control == 4

    def test_dual_cluster_row(self):
        """Row 2 of Table 1: per cluster 4 total, 4 int, 2 fp, 2 ld/st, 2 cf."""
        rules = DUAL_ISSUE_RULES
        assert rules.total == 4
        assert rules.integer == 4
        assert rules.floating_point == 2
        assert rules.memory == 2
        assert rules.control == 2


class TestTable1Latencies:
    def test_latency_row(self):
        """Row 3 of Table 1."""
        lat = LatencyModel()
        assert lat.latency_of(Opcode.MULQ) == 6
        assert lat.latency_of(Opcode.ADDQ) == 1
        assert lat.latency_of(Opcode.DIVS) == 8    # 32-bit divide
        assert lat.latency_of(Opcode.DIVT) == 16   # 64-bit divide
        assert lat.latency_of(Opcode.ADDT) == 3
        assert lat.latency_of(Opcode.BNE) == 1
        assert lat.latency_of(Opcode.STQ) == 1

    def test_load_delay_slot(self):
        """Loads: latency 1 plus one load-delay slot (footnote)."""
        lat = LatencyModel()
        assert lat.latency_of(Opcode.LDQ) == 2
        assert lat.latency_of(Opcode.LDT) == 2


class TestSection41Resources:
    def test_single_cluster_resources(self):
        config = single_cluster_config()
        assert config.num_clusters == 1
        cluster = config.clusters[0]
        assert cluster.dispatch_queue_entries == 128
        assert cluster.int_physical_registers == 128
        assert cluster.fp_physical_registers == 128
        assert config.fetch_width == 12
        assert config.retire_width == 8

    def test_dual_cluster_resources(self):
        config = dual_cluster_config()
        assert config.num_clusters == 2
        for cluster in config.clusters:
            assert cluster.dispatch_queue_entries == 64
            assert cluster.int_physical_registers == 64
            assert cluster.operand_buffer_entries == 8
            assert cluster.result_buffer_entries == 8

    def test_total_issue_width_matches(self):
        assert single_cluster_config().total_issue_width == 8
        assert dual_cluster_config().total_issue_width == 8

    def test_caches_64k_two_way(self):
        config = dual_cluster_config()
        assert config.icache.size_bytes == 64 * 1024
        assert config.icache.associativity == 2
        assert config.dcache.size_bytes == 64 * 1024
        assert config.memory_latency == 16

    def test_four_way_variants(self):
        assert single_cluster_4way_config().total_issue_width == 4
        assert dual_cluster_2way_config().total_issue_width == 4

    def test_with_buffer_entries(self):
        config = with_buffer_entries(dual_cluster_config(), 16)
        assert all(c.operand_buffer_entries == 16 for c in config.clusters)
        assert all(c.result_buffer_entries == 16 for c in config.clusters)


class TestDefaultAssignments:
    def test_single(self):
        a = default_assignment_for(single_cluster_config())
        assert a.num_clusters == 1

    def test_dual(self):
        a = default_assignment_for(dual_cluster_config())
        assert a.num_clusters == 2

    def test_mismatch_rejected_by_processor(self):
        import pytest

        from repro.uarch.processor import Processor

        with pytest.raises(ValueError):
            Processor(dual_cluster_config(), RegisterAssignment.single_cluster())


class TestNClusterDefaultAssignment:
    def test_three_and_four_clusters_get_the_modulo_map(self):
        from repro.gym.space import ClusterSpec, DesignPoint
        from repro.isa.registers import all_registers

        for n in (3, 4):
            point = DesignPoint(
                clusters=(ClusterSpec(2, 32, 64),) * n, buffer_entries=4
            )
            a = default_assignment_for(point.to_config())
            rr = RegisterAssignment.round_robin(n)
            assert a.num_clusters == n
            for reg in all_registers():
                assert a.clusters_of(reg) == rr.clusters_of(reg)

    def test_dual_stays_even_odd(self):
        from repro.isa.registers import all_registers

        a = default_assignment_for(dual_cluster_config())
        eo = RegisterAssignment.even_odd_dual()
        for reg in all_registers():
            assert a.clusters_of(reg) == eo.clusters_of(reg)
