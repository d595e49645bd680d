"""Metrics registry and per-structure time-series sampling.

Three metric kinds, deliberately Prometheus-shaped so the export layer
is a straight rendering pass:

* :class:`Counter` — monotonically increasing totals (issued uops,
  stall events);
* :class:`Gauge` — instantaneous levels (queue occupancy, transfer
  buffer depth, free physical registers);
* :class:`Histogram` — distributions over fixed bucket bounds (queue
  occupancy distribution, so Table-2 debugging can see *pressure*, not
  just peaks).

:class:`PipelineMetrics` wires a registry to a live
:class:`~repro.uarch.processor.Processor`: attached, it samples every
``interval`` cycles through the processor's ``metrics_hook`` (a single
``None`` check per cycle when detached) and keeps a bounded time series
of every gauge — the data behind transfer-buffer-pressure and
load-imbalance plots.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.uarch.processor import Processor

#: Default sampling interval (cycles) for pipeline time series.
DEFAULT_SAMPLE_INTERVAL = 100

#: Default cap on retained samples; sampling degrades gracefully by
#: doubling its stride once the cap is hit (old samples are thinned).
DEFAULT_MAX_SAMPLES = 4096

Number = Union[int, float]


def _render_key(name: str, labels: dict[str, str]) -> str:
    """Canonical ``name{k="v",...}`` identity (sorted label keys)."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{rendered}}}"


@dataclass
class Counter:
    """Monotonically increasing total."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)


@dataclass
class Gauge:
    """Instantaneous level."""

    name: str
    labels: dict[str, str] = field(default_factory=dict)
    value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)


@dataclass
class Histogram:
    """Fixed-bound bucket histogram (cumulative counts at export time)."""

    name: str
    bounds: tuple[Number, ...]
    labels: dict[str, str] = field(default_factory=dict)
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0

    def __post_init__(self) -> None:
        self.bounds = tuple(sorted(self.bounds))
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: Number) -> None:
        # bisect_left keeps bounds inclusive (Prometheus ``le`` buckets):
        # a value equal to a bound lands in that bound's bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def key(self) -> str:
        return _render_key(self.name, self.labels)

    def as_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": self.sum,
        }


Metric = Union[Counter, Gauge, Histogram]

_TYPE_NAMES = {Counter: "counter", Gauge: "gauge", Histogram: "histogram"}


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by name + labels.

    Re-registering the same (name, labels) returns the existing metric;
    registering the same name as a different kind is an error — one
    name, one type, exactly the Prometheus exposition rule.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._types: dict[str, str] = {}
        self._help: dict[str, str] = {}

    def _register(self, metric: Metric, help: str) -> Metric:
        kind = _TYPE_NAMES[type(metric)]
        existing_kind = self._types.get(metric.name)
        if existing_kind is not None and existing_kind != kind:
            raise ValueError(
                f"metric {metric.name!r} already registered as "
                f"{existing_kind}, not {kind}"
            )
        found = self._metrics.get(metric.key)
        if found is not None:
            return found
        self._metrics[metric.key] = metric
        self._types[metric.name] = kind
        if help:
            self._help[metric.name] = help
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._register(Counter(name, labels), help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._register(Gauge(name, labels), help)  # type: ignore[return-value]

    def histogram(
        self, name: str, bounds: Sequence[Number], help: str = "", **labels: str
    ) -> Histogram:
        return self._register(Histogram(name, tuple(bounds), labels), help)  # type: ignore[return-value]

    # -------------------------------------------------------------- reading
    def collect(self) -> list[Metric]:
        return list(self._metrics.values())

    def type_of(self, name: str) -> Optional[str]:
        return self._types.get(name)

    def help_of(self, name: str) -> str:
        return self._help.get(name, "")

    def snapshot(self) -> dict[str, Union[Number, dict]]:
        """Flat ``{key: value}`` of every metric (histograms as dicts)."""
        out: dict[str, Union[Number, dict]] = {}
        for key, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out

    def gauges_snapshot(self) -> dict[str, Number]:
        """Just the gauges — the per-sample time-series row."""
        return {
            key: metric.value
            for key, metric in self._metrics.items()
            if isinstance(metric, Gauge)
        }


class PipelineMetrics:
    """A registry wired to a processor's per-structure state.

    Gauges per cluster: dispatch-queue occupancy, ready count, operand
    and result transfer-buffer depth, free int/fp physical registers.
    Machine gauges: ROB and fetch-buffer occupancy.  Histograms record
    the queue- and buffer-occupancy distributions across samples.
    Counters are filled once at :meth:`finalize` from the run's
    statistics, so exports carry levels *and* totals.
    """

    def __init__(
        self,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be >= 1, got {interval}")
        self.interval = interval
        self.max_samples = max_samples
        self.registry = MetricsRegistry()
        #: ``(cycle, {gauge key: value})`` rows, oldest first.
        self.samples: list[tuple[int, dict[str, Number]]] = []
        self.samples_dropped = 0
        self._next_sample = 0
        self._built = False

    # ------------------------------------------------------------- wiring
    def attach(self, processor: "Processor") -> "PipelineMetrics":
        """Install this sampler as the processor's metrics hook."""
        self._build(processor)
        processor.metrics_hook = self.on_cycle
        return self

    def _build(self, processor: "Processor") -> None:
        if self._built:
            return
        self._built = True
        reg = self.registry
        queue_cap = max(
            (c.config.dispatch_queue_entries for c in processor.clusters), default=8
        )
        bounds = tuple(
            sorted({queue_cap // 8, queue_cap // 4, queue_cap // 2,
                    3 * queue_cap // 4, queue_cap} - {0})
        )
        for cluster in processor.clusters:
            label = str(cluster.index)
            reg.gauge("repro_queue_occupancy",
                      "dispatch-queue entries in use", cluster=label)
            reg.gauge("repro_ready_uops", "uops ready to issue", cluster=label)
            reg.gauge("repro_operand_buffer_depth",
                      "operand transfer-buffer entries in use", cluster=label)
            reg.gauge("repro_result_buffer_depth",
                      "result transfer-buffer entries in use", cluster=label)
            reg.gauge("repro_int_regs_free",
                      "free integer physical registers", cluster=label)
            reg.gauge("repro_fp_regs_free",
                      "free FP physical registers", cluster=label)
            reg.histogram("repro_queue_occupancy_dist", bounds,
                          "queue occupancy distribution across samples",
                          cluster=label)
        reg.gauge("repro_rob_occupancy", "in-flight dynamic instructions")
        reg.gauge("repro_fetch_buffer_depth", "fetched, undispatched instructions")

    # ------------------------------------------------------------ sampling
    def on_cycle(self, processor: "Processor", cycle: int) -> None:
        """The processor's per-cycle hook (fast-forward safe)."""
        if cycle < self._next_sample:
            return
        self.sample(processor, cycle)
        self._next_sample = cycle + self.interval

    def sample(self, processor: "Processor", cycle: int) -> None:
        from repro.isa.registers import RegisterClass

        reg = self.registry
        for cluster in processor.clusters:
            label = str(cluster.index)
            occupancy = cluster.config.dispatch_queue_entries - cluster.queue_free
            reg.gauge("repro_queue_occupancy", cluster=label).set(occupancy)
            reg.gauge("repro_ready_uops", cluster=label).set(len(cluster.ready))
            reg.gauge("repro_operand_buffer_depth", cluster=label).set(
                cluster.operand_buffer.occupancy
            )
            reg.gauge("repro_result_buffer_depth", cluster=label).set(
                cluster.result_buffer.occupancy
            )
            files = cluster.rename.files
            reg.gauge("repro_int_regs_free", cluster=label).set(
                files[RegisterClass.INT].free_count
            )
            reg.gauge("repro_fp_regs_free", cluster=label).set(
                files[RegisterClass.FP].free_count
            )
            reg.histogram("repro_queue_occupancy_dist", (), cluster=label).observe(
                occupancy
            )
        reg.gauge("repro_rob_occupancy").set(processor.rob_occupancy)
        reg.gauge("repro_fetch_buffer_depth").set(processor.fetch_buffer_occupancy)
        self.samples.append((cycle, reg.gauges_snapshot()))
        if len(self.samples) > self.max_samples:
            # Thin to every other sample and double the stride: bounded
            # memory, still full-run coverage.
            self.samples_dropped += len(self.samples) - (len(self.samples) + 1) // 2
            self.samples = self.samples[::2]
            self.interval *= 2

    # ------------------------------------------------------------ finalize
    def finalize(self, processor: "Processor") -> None:
        """Mirror the run's counters into the registry (call after run)."""
        reg = self.registry
        stats = processor.stats
        reg.counter("repro_cycles_total", "simulated cycles").inc(processor.cycle)
        reg.counter("repro_instructions_total", "retired instructions").inc(
            stats.instructions
        )
        reg.counter("repro_replay_exceptions_total",
                    "instruction-replay exceptions").inc(stats.replay_exceptions)
        for cluster in processor.clusters:
            label = str(cluster.index)
            cstats = cluster.stats
            for class_name, count in sorted(cstats.issued_by_class.items()):
                reg.counter(
                    "repro_issued_uops_total", "uops issued",
                    cluster=label, iclass=class_name,
                ).inc(count)
            reg.counter("repro_queue_full_stalls_total",
                        "dispatch stalls on a full queue", cluster=label).inc(
                cstats.queue_full_stalls
            )
            reg.counter("repro_regfile_full_stalls_total",
                        "dispatch stalls on an empty free list", cluster=label).inc(
                cstats.regfile_full_stalls
            )
            reg.counter("repro_transfer_full_stall_cycles_total",
                        "uop-cycles blocked on a full transfer buffer",
                        cluster=label).inc(
                cluster.operand_buffer.stats.full_stall_cycles
                + cluster.result_buffer.stats.full_stall_cycles
            )

    # -------------------------------------------------------------- export
    def payload(self) -> dict:
        """JSON-native fragment for the export layer."""
        histograms = {
            m.key: m.as_dict()
            for m in self.registry.collect()
            if isinstance(m, Histogram)
        }
        final = {
            m.key: m.value
            for m in self.registry.collect()
            if not isinstance(m, Histogram)
        }
        return {
            "interval": self.interval,
            "final": final,
            "histograms": histograms,
            "series": [
                {"cycle": cycle, "values": values} for cycle, values in self.samples
            ],
            "samples_dropped": self.samples_dropped,
        }


def executor_metrics() -> MetricsRegistry:
    """A registry pre-registered with the sweep-executor counters.

    The supervised executor (:mod:`repro.perf.executor`) increments
    these as it dispatches, loses, and re-dispatches tasks; registering
    them up front means a healthy run exports explicit zeros for every
    failure counter rather than omitting them.
    """
    reg = MetricsRegistry()
    reg.counter("executor_dispatches",
                "tasks handed to a worker (re-dispatches included)")
    reg.counter("executor_redispatches",
                "tasks re-dispatched after a lost worker or expired deadline")
    reg.counter("executor_affinity_steals",
                "tasks taken while another worker held their affinity key")
    reg.counter("executor_tasks_completed", "task results delivered to the sweep")
    reg.counter("executor_worker_deaths",
                "worker processes that died or were killed by the supervisor")
    reg.counter("executor_deadline_expirations",
                "per-task deadlines that expired (wedged worker or lost result)")
    reg.counter("executor_degradations",
                "circuit-breaker trips that degraded the sweep to serial")
    return reg


__all__ = [
    "DEFAULT_MAX_SAMPLES",
    "DEFAULT_SAMPLE_INTERVAL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PipelineMetrics",
    "executor_metrics",
]
