"""One-benchmark observed runs: what ``repro trace``/``stats`` execute.

:func:`observe_benchmark` runs a single bundled benchmark on one machine
with the flight recorder armed — typed event tracing, metrics sampling,
and stall attribution — and returns an :class:`ObservedRun` whose
payload slots straight into the export layer.  The run is the experiment
harness's own evaluation part, so the compile, trace and validation are
the ones a Table 2 sweep performs (and a shared ``--cache-dir`` makes
the observation nearly free after a sweep).

Machines:

* ``single`` — native binary on the 1x8 single-cluster baseline;
* ``dual`` — native binary on the 2x4 dual-cluster machine (Table 2
  column "none");
* ``dual-local`` — local-scheduler-rescheduled binary on the dual
  machine (column "local").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError
from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL, PipelineMetrics
from repro.obs.stall import StallAccounting
from repro.obs.trace import JsonlSink, MemorySink, TraceRecorder, TraceSink
from repro.perf.cache import ArtifactCache
from repro.uarch.processor import SimulationResult
from repro.workloads.spec92 import DEFAULT_TRACE_LENGTH, SPEC92, check_benchmark

#: Machine selector accepted by ``repro trace``/``repro stats`` -> the
#: harness part that simulates it.
MACHINE_PART = {"single": "single", "dual": "dual_none", "dual-local": "dual_local"}
MACHINES = tuple(MACHINE_PART)


@dataclass
class ObservedRun:
    """One benchmark run with the flight recorder attached."""

    benchmark: str
    machine: str
    result: SimulationResult
    trace_length: int
    #: The recorder left on the processor (``None`` when tracing was off).
    recorder: Optional[TraceRecorder] = None
    #: The metrics sampler (``None`` when metrics were off).
    metrics: Optional[PipelineMetrics] = None
    #: The dynamic-instruction trace the run executed (for disassembly
    #: labels in pipeline charts).
    trace: Optional[Sequence] = None

    @property
    def stats(self):
        return self.result.stats

    def run_payload(self) -> dict:
        """The per-run fragment of a ``repro-stats`` document."""
        return {
            "config": self.result.config_name,
            "machine": self.machine,
            "trace_length": self.trace_length,
            "stats": self.result.stats.as_dict(),
        }


def observe_benchmark(
    name: str,
    machine: str = "single",
    *,
    trace_length: int = DEFAULT_TRACE_LENGTH,
    trace_seed: int = 7,
    record_events: bool = False,
    jsonl=None,
    sample_interval: Optional[int] = DEFAULT_SAMPLE_INTERVAL,
    attribute_stalls: bool = True,
    cache: Optional[ArtifactCache] = None,
) -> ObservedRun:
    """Run ``name`` on ``machine`` with observability attached.

    The run is the harness's own part (:data:`MACHINE_PART`), with the
    observers attached through ``evaluate_workload_part(observe=...)``.

    Args:
        record_events: keep every pipeline event in memory (the
            ``repro trace`` chart needs random access to the stream).
        jsonl: additionally stream every event to this JSONL path.
        sample_interval: metrics sampling period in cycles; ``None``
            disables the metrics registry entirely.
        attribute_stalls: classify every non-issuing slot (exact
            accounting; see :mod:`repro.obs.stall`).
        cache: artifact cache to compile/trace through (fresh in-memory
            one when unset).
    """
    from repro.experiments.harness import EvaluationOptions, evaluate_workload_part

    if machine not in MACHINES:
        raise ConfigError(
            f"unknown machine {machine!r}; valid machines: {', '.join(MACHINES)}",
            benchmark=name,
        )
    check_benchmark(name)
    observed: dict = {}

    def attach(processor, trace) -> None:
        sinks: list[TraceSink] = []
        if record_events:
            sinks.append(MemorySink())
        if jsonl is not None:
            sinks.append(JsonlSink(jsonl))
        if sinks:
            processor.recorder = TraceRecorder(sinks)
        if sample_interval is not None:
            observed["metrics"] = PipelineMetrics(interval=sample_interval).attach(
                processor
            )
        if attribute_stalls:
            processor.stall_acct = StallAccounting(
                [c.issue.total for c in processor.config.clusters]
            )
        observed.update(processor=processor, trace=trace)

    options = EvaluationOptions(trace_length=trace_length, trace_seed=trace_seed)
    result = evaluate_workload_part(
        SPEC92[name](), MACHINE_PART[machine], options, cache, observe=attach
    ).sim
    processor = observed["processor"]
    metrics = observed.get("metrics")
    if metrics is not None:
        metrics.finalize(processor)
        result.stats.metrics = metrics.payload()
    if processor.recorder is not None:
        processor.recorder.close()
    return ObservedRun(
        benchmark=name,
        machine=machine,
        result=result,
        trace_length=trace_length,
        recorder=processor.recorder,
        metrics=metrics,
        trace=observed["trace"],
    )


__all__ = ["MACHINES", "MACHINE_PART", "ObservedRun", "observe_benchmark"]
