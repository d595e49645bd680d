"""Exporters: schema-validated stats JSON and Prometheus text format."""

import json

import pytest

from repro.obs.export import (
    SchemaError,
    prometheus_text,
    stats_document,
    validate_stats_payload,
    write_prometheus,
    write_stats_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runner import observe_benchmark

TL = 1500


@pytest.fixture(scope="module")
def document():
    runs = [
        observe_benchmark("compress", machine, trace_length=TL,
                          sample_interval=200)
        for machine in ("single", "dual")
    ]
    return stats_document("compress", [run.run_payload() for run in runs])


class TestStatsJson:
    def test_document_validates(self, document):
        validate_stats_payload(document)

    def test_write_then_reload_round_trip(self, document, tmp_path):
        path = tmp_path / "stats.json"
        write_stats_json(path, document)
        reloaded = json.loads(path.read_text())
        validate_stats_payload(reloaded)
        assert reloaded == document

    def test_wrong_kind_rejected(self, document):
        bad = dict(document, kind="nonsense")
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            validate_stats_payload(bad)

    def test_wrong_schema_version_rejected(self, document):
        bad = dict(document, schema=99)
        with pytest.raises(SchemaError, match=r"\$\.schema"):
            validate_stats_payload(bad)

    def test_stall_imbalance_rejected(self, document):
        bad = json.loads(json.dumps(document))  # deep copy
        bad["runs"][0]["stats"]["stall_attribution"]["issued_slots"] += 1
        with pytest.raises(SchemaError, match="balance|inconsistent"):
            validate_stats_payload(bad)

    def test_unknown_cause_rejected(self, document):
        bad = json.loads(json.dumps(document))
        bad["runs"][0]["stats"]["stall_attribution"]["causes"]["mystery"] = 0
        with pytest.raises(SchemaError, match="unknown causes"):
            validate_stats_payload(bad)

    def test_non_increasing_series_rejected(self, document):
        bad = json.loads(json.dumps(document))
        series = bad["runs"][0]["stats"]["metrics"]["series"]
        assert len(series) >= 2, "need two samples to scramble"
        series[1]["cycle"] = series[0]["cycle"]
        with pytest.raises(SchemaError, match="strictly increasing"):
            validate_stats_payload(bad)

    def test_invalid_document_never_written(self, document, tmp_path):
        path = tmp_path / "stats.json"
        bad = dict(document, kind="nonsense")
        with pytest.raises(SchemaError):
            write_stats_json(path, bad)
        assert not path.exists()


class TestPrometheus:
    def test_full_registry_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_cycles_total", "simulated cycles").inc(1234)
        reg.gauge("repro_depth", "queue depth", cluster="0").set(3)
        hist = reg.histogram("repro_dist", (1, 4), "occupancy", cluster="0")
        for value in (0, 2, 9):
            hist.observe(value)
        text = prometheus_text(reg)
        assert "# HELP repro_cycles_total simulated cycles" in text
        assert "# TYPE repro_cycles_total counter" in text
        assert "repro_cycles_total 1234" in text
        assert 'repro_depth{cluster="0"} 3' in text
        # Histogram buckets are cumulative and end at +Inf.
        assert 'repro_dist_bucket{cluster="0",le="1.0"} 1' in text
        assert 'repro_dist_bucket{cluster="0",le="4.0"} 2' in text
        assert 'repro_dist_bucket{cluster="0",le="+Inf"} 3' in text
        assert 'repro_dist_count{cluster="0"} 3' in text
        assert text.endswith("\n")

    def test_real_run_renders(self, tmp_path):
        run = observe_benchmark("compress", "dual", trace_length=TL)
        path = tmp_path / "metrics.prom"
        write_prometheus(path, run.metrics.registry)
        text = path.read_text()
        assert f"repro_cycles_total {run.stats.cycles}" in text
        assert 'repro_queue_occupancy{cluster="1"}' in text


class TestLabelEscaping:
    def test_hostile_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter(
            "dist_host_tasks_completed", "per-host tasks", host='node"1'
        ).inc(7)
        reg.gauge("dist_hosts_active", "hosts", zone="a\\b\nc").set(2)
        text = prometheus_text(reg)
        assert 'dist_host_tasks_completed{host="node\\"1"} 7' in text
        assert 'dist_hosts_active{zone="a\\\\b\\nc"} 2' in text
        # The raw newline in the zone label never splits a sample line:
        # every line is either a comment or ends in a numeric value.
        for line in text.splitlines():
            assert line.startswith("#") or line.rsplit(" ", 1)[1].isdigit()

    def test_benign_values_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "c", host="node-1").inc(1)
        assert 'c_total{host="node-1"} 1' in prometheus_text(reg)
