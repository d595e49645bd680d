"""Tests for simulation statistics."""

from repro.core.distribution import Scenario
from repro.uarch.stats import ClusterStats, SimulationStats


class TestDerivedMetrics:
    def test_ipc(self):
        s = SimulationStats(cycles=100, instructions=250)
        assert s.ipc == 2.5

    def test_ipc_zero_cycles(self):
        assert SimulationStats().ipc == 0.0

    def test_branch_accuracy(self):
        s = SimulationStats(branch_predictions=100, branch_mispredictions=7)
        assert abs(s.branch_accuracy - 0.93) < 1e-9

    def test_branch_accuracy_no_branches(self):
        assert SimulationStats().branch_accuracy == 1.0

    def test_cache_miss_rates(self):
        s = SimulationStats(dcache_accesses=200, dcache_misses=20,
                            icache_accesses=100, icache_misses=1)
        assert s.dcache_miss_rate == 0.1
        assert s.icache_miss_rate == 0.01

    def test_dual_fraction(self):
        s = SimulationStats(instructions=100, dual_distributed=25)
        assert s.dual_fraction == 0.25

    def test_issue_disorder_empty(self):
        assert SimulationStats().issue_disorder == 0.0


class TestClusterStats:
    def test_note_issue_aggregates_by_class(self):
        c = ClusterStats()
        c.note_issue("integer")
        c.note_issue("integer")
        c.note_issue("fp")
        assert c.issued == 3
        assert c.issued_by_class == {"integer": 2, "fp": 1}


class TestSummary:
    def test_summary_contains_headline_numbers(self):
        s = SimulationStats(
            cycles=1000,
            instructions=2000,
            dual_distributed=100,
            replay_exceptions=3,
            clusters=[ClusterStats(), ClusterStats()],
        )
        s.by_scenario[Scenario.DUAL_OPERAND] = 50
        text = s.summary()
        assert "1000" in text
        assert "2.000" in text  # IPC
        assert "replay exceptions" in text
        assert "cluster 1" in text


class TestMergedMissExport:
    def test_finalize_exports_merged_misses(self):
        """Regression: merged-miss counters must reach the stats surface.

        ``Cache.stats.merged_misses`` was counted but never copied into
        ``SimulationStats`` at finalize, so the inverted-MSHR behaviour
        was invisible to every report, export, and fingerprint.
        """
        from repro.core.registers import RegisterAssignment
        from repro.uarch.config import single_cluster_config
        from repro.uarch.processor import Processor

        from tests.uarch.helpers import make_trace

        processor = Processor(
            single_cluster_config(), RegisterAssignment.single_cluster()
        )
        processor.start(make_trace(20))
        processor.advance()
        processor.icache.stats.merged_misses = 7
        processor.dcache.stats.merged_misses = 3
        stats = processor.finalize().stats
        assert stats.icache_merged_misses == 7
        assert stats.dcache_merged_misses == 3
        payload = stats.as_dict()
        assert payload["icache_merged_misses"] == 7
        assert payload["dcache_merged_misses"] == 3

    def test_summary_mentions_merged_misses(self):
        s = SimulationStats(
            cycles=10,
            instructions=10,
            icache_accesses=4,
            icache_misses=2,
            icache_merged_misses=1,
            dcache_accesses=4,
            dcache_misses=2,
            dcache_merged_misses=2,
        )
        assert "(1 merged)" in s.summary()
        assert "(2 merged)" in s.summary()
