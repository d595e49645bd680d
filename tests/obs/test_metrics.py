"""Metrics registry and pipeline time-series sampling."""

import pytest

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    PipelineMetrics,
)
from repro.obs.runner import observe_benchmark


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_x_total", "help text")
        b = reg.counter("repro_x_total")
        assert a is b
        a.inc(3)
        assert b.value == 3

    def test_labels_distinguish_metrics(self):
        reg = MetricsRegistry()
        c0 = reg.counter("repro_issued", cluster="0")
        c1 = reg.counter("repro_issued", cluster="1")
        assert c0 is not c1
        assert c0.key == 'repro_issued{cluster="0"}'

    def test_same_name_different_kind_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_x")
        with pytest.raises(ValueError, match="already registered as counter"):
            reg.gauge("repro_x")

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_histogram_buckets(self):
        h = Histogram("h", bounds=(1, 4, 16))
        for value in (0, 1, 2, 5, 100):
            h.observe(value)
        # Per-bucket (non-cumulative) counts: le=1, le=4, le=16, +Inf.
        # Bounds are inclusive, so the observation of exactly 1 lands in
        # the le=1 bucket.
        assert h.counts == [2, 1, 1, 1]
        assert h.total == 5 and h.sum == 108.0

    def test_snapshot_and_help(self):
        reg = MetricsRegistry()
        reg.gauge("repro_depth", "queue depth").set(7)
        assert reg.snapshot() == {"repro_depth": 7}
        assert reg.help_of("repro_depth") == "queue depth"
        assert reg.type_of("repro_depth") == "gauge"


class TestPipelineMetrics:
    def test_interval_validated(self):
        with pytest.raises(ValueError, match="interval"):
            PipelineMetrics(interval=0)

    def test_sampling_on_real_run(self):
        run = observe_benchmark(
            "compress", "dual", trace_length=1500, sample_interval=50
        )
        metrics = run.metrics
        assert metrics.samples, "expected at least one sample"
        cycles = [cycle for cycle, _ in metrics.samples]
        assert cycles == sorted(set(cycles)), "sample cycles strictly increase"
        # Per-cluster gauges exist for both clusters of the 2x4 machine.
        first_values = metrics.samples[0][1]
        assert 'repro_queue_occupancy{cluster="0"}' in first_values
        assert 'repro_queue_occupancy{cluster="1"}' in first_values
        assert "repro_rob_occupancy" in first_values

    def test_finalize_mirrors_run_counters(self):
        run = observe_benchmark("compress", "single", trace_length=1500)
        snapshot = run.metrics.registry.snapshot()
        assert snapshot["repro_cycles_total"] == run.stats.cycles
        assert snapshot["repro_instructions_total"] == run.stats.instructions
        issued = sum(
            value
            for key, value in snapshot.items()
            if key.startswith("repro_issued_uops_total{")
        )
        assert issued == sum(c.issued for c in run.stats.clusters)

    def test_payload_shape(self):
        run = observe_benchmark("compress", "dual", trace_length=1200,
                                sample_interval=60)
        payload = run.metrics.payload()
        assert payload["interval"] >= 60
        assert isinstance(payload["final"], dict)
        assert payload["series"]
        assert {"cycle", "values"} <= set(payload["series"][0])
        assert payload["samples_dropped"] >= 0
        # The payload rides on the stats object for exporters.
        assert run.stats.metrics == payload

    def test_thinning_bounds_memory(self):
        from repro.uarch.config import default_assignment_for, single_cluster_config
        from repro.uarch.processor import Processor

        sampler = PipelineMetrics(interval=1, max_samples=8)
        config = single_cluster_config()
        processor = Processor(config, default_assignment_for(config))
        sampler.attach(processor)
        for cycle in range(50):
            sampler.on_cycle(processor, cycle)
        assert len(sampler.samples) <= 8 + 1
        assert sampler.samples_dropped > 0
        assert sampler.interval > 1  # stride doubled under pressure
        # Every retained cycle is still strictly increasing.
        cycles = [cycle for cycle, _ in sampler.samples]
        assert cycles == sorted(set(cycles))
