"""The flight recorder: observability for the multicluster simulator.

Eight cooperating parts (see DESIGN.md Sections 12 and 17):

* :mod:`repro.obs.trace` — typed pipeline events behind pluggable
  memory/ring/JSONL sinks;
* :mod:`repro.obs.metrics` — counters/gauges/histograms with periodic
  time-series sampling of every queue, buffer, and free list;
* :mod:`repro.obs.stall` — exact per-slot stall attribution and the
  1x8-vs-2x4 diff report;
* :mod:`repro.obs.export` — schema-validated JSON and Prometheus text;
* :mod:`repro.obs.heartbeat` — progress lines + journal records for
  long sweeps;
* :mod:`repro.obs.spans` — orchestration span tracing (correlated
  sweep -> task -> compile/tracegen/simulate records, Perfetto export);
* :mod:`repro.obs.top` — the ``repro top`` live run-directory view;
* :mod:`repro.obs.runner` — one-benchmark observed runs (``repro
  trace`` / ``repro stats``).

This package intentionally re-exports only the light, dependency-free
modules; import :mod:`repro.obs.runner` explicitly (it pulls in the
experiment harness).
"""

from repro.obs.heartbeat import Heartbeat
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PipelineMetrics,
)
from repro.obs.spans import Span, SpanWriter, WallSpans
from repro.obs.stall import CAUSES, StallAccounting, check_identity, diff_reports
from repro.obs.trace import (
    EVENT_KINDS,
    JsonlSink,
    MemorySink,
    PipelineEvent,
    RingSink,
    TraceRecorder,
    iter_events,
    read_jsonl,
)

__all__ = [
    "CAUSES",
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Heartbeat",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "PipelineEvent",
    "PipelineMetrics",
    "RingSink",
    "Span",
    "SpanWriter",
    "StallAccounting",
    "WallSpans",
    "TraceRecorder",
    "check_identity",
    "diff_reports",
    "iter_events",
    "read_jsonl",
]
