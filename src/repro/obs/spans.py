"""Orchestration-layer span tracing (DESIGN.md Section 17).

A :class:`Span` records one bounded unit of orchestration work —
sweep, benchmark-part task, compile, trace generation, simulation,
retry, gym trial/rung, executor dispatch, requeue — with correlation
IDs (``trace_id``/``span_id``/``parent_id``) so every record of one
sweep can be stitched back together across processes and shards.

Two span classes with different determinism contracts:

* **Deterministic spans** (:data:`DETERMINISTIC_KINDS`) measure time in
  *virtual work units* derived from the computation's content — machine
  instructions compiled, trace entries generated, cycles simulated —
  laid out end-to-end on a per-task virtual timeline.  Their IDs are
  content fingerprints, so a serial run, a ``--jobs`` run, a SIGKILLed
  + ``--resume``\\ d run, and a ``--shard`` run split across hosts of
  the same sweep all emit the **bit-identical** span set (after
  ``repro journal merge`` folds and dedupes the shards).
* **Wall-clock spans** (:data:`WALL_KINDS`) measure real scheduling
  behaviour — dispatch latency, requeue storms, degradations — in
  microseconds relative to a per-emitter monotonic epoch.  They are
  intentionally run-specific and are kept out of the canonical merged
  file (``spans-wall.jsonl``, not ``spans.jsonl``).

Writers append one JSON object per line to per-shard sinks
(``spans.jsonl`` / ``spans-<shard>.jsonl``) in the run directory, next
to the journal shards, with the same flush+fsync durability.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, Union

from repro.errors import ConfigError

#: Schema version stamped on every span record.
SPAN_SCHEMA = 1

#: Content-derived spans: bit-identical across serial / parallel /
#: resumed / sharded runs of the same sweep.
DETERMINISTIC_KINDS = frozenset(
    {
        "sweep",
        "task",
        "compile",
        "tracegen",
        "simulate",
        "retry",
        "gym_trial",
        "gym_rung",
    }
)

#: Wall-clock orchestration spans: real scheduling behaviour, excluded
#: from the bit-identity contract and the canonical merged file.
WALL_KINDS = frozenset({"dispatch", "requeue", "degradation"})

SPAN_KINDS = tuple(sorted(DETERMINISTIC_KINDS | WALL_KINDS))

#: The three parts of one benchmark row, in virtual-timeline order.
_PART_STAGES = ("compile", "tracegen", "simulate")


class SpanSchemaError(ConfigError):
    """A span record or exported trace failed schema validation."""


@dataclass(frozen=True)
class Span:
    """One orchestration span.

    ``start_u``/``end_u`` are integer microsecond-like units: virtual
    work units for deterministic kinds, monotonic-relative microseconds
    for wall kinds.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    kind: str
    name: str
    start_u: int
    end_u: int
    attrs: dict[str, Any] = field(default_factory=dict)
    schema: int = SPAN_SCHEMA

    @property
    def duration_u(self) -> int:
        return self.end_u - self.start_u

    @property
    def deterministic(self) -> bool:
        return self.kind in DETERMINISTIC_KINDS

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "start_u": self.start_u,
            "end_u": self.end_u,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        kind = data["kind"]
        if kind not in DETERMINISTIC_KINDS and kind not in WALL_KINDS:
            raise SpanSchemaError(f"unknown span kind {kind!r}")
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            kind=data["kind"],
            name=data["name"],
            start_u=int(data["start_u"]),
            end_u=int(data["end_u"]),
            attrs=dict(data.get("attrs", {})),
            schema=int(data.get("schema", SPAN_SCHEMA)),
        )


# --------------------------------------------------------------- identity
def sweep_trace_id(label: str, options: Any, benchmarks: Iterable[str]) -> str:
    """The content-derived trace id shared by every span of one sweep.

    Derived from the sweep label, the value-determining options
    fingerprint, and the benchmark set — the same inputs that decide
    whether a journal row may be reused on ``--resume``, so a resumed
    run lands in the same trace as the run it continues.
    """
    from repro.perf.fingerprint import fingerprint
    from repro.robustness.journal import options_fingerprint

    return fingerprint(
        ("trace/v1", label, options_fingerprint(options), tuple(sorted(benchmarks)))
    )[:16]


def derive_span_id(trace_id: str, kind: str, name: str, *parts: Any) -> str:
    """Content-derived span id (16 hex chars)."""
    from repro.perf.fingerprint import fingerprint

    return fingerprint(("span/v1", trace_id, kind, name) + parts)[:16]


def sweep_span_id(trace_id: str) -> str:
    """The root span's id — derivable from the trace id alone, so
    workers can parent their task spans without extra coordination."""
    return derive_span_id(trace_id, "sweep", "sweep")


# --------------------------------------------------------------- builders
def part_task_spans(
    trace_id: str,
    benchmark: str,
    part: str,
    *,
    compile_units: int,
    trace_units: int,
    sim_units: int,
) -> list[Span]:
    """The deterministic spans of one benchmark-part task.

    The task's children are laid end-to-end on a task-relative virtual
    timeline — ``compile [0,c) → tracegen [c,c+t) → simulate
    [c+t,c+t+s)`` — with costs taken from the computation itself
    (machine instructions, trace entries, simulated cycles), so every
    run that rebuilds them from the same :class:`BenchmarkEvaluation`
    produces identical records that merge-dedupe into one.
    """
    name = f"{benchmark}:{part}"
    costs = (int(compile_units), int(trace_units), int(sim_units))
    total = sum(costs)
    task_id = derive_span_id(trace_id, "task", name, costs)
    spans = [
        Span(
            trace_id=trace_id,
            span_id=task_id,
            parent_id=sweep_span_id(trace_id),
            kind="task",
            name=name,
            start_u=0,
            end_u=total,
            attrs={"benchmark": benchmark, "part": part},
        )
    ]
    offset = 0
    for stage, units in zip(_PART_STAGES, costs):
        spans.append(
            Span(
                trace_id=trace_id,
                span_id=derive_span_id(trace_id, stage, name, costs),
                parent_id=task_id,
                kind=stage,
                name=name,
                start_u=offset,
                end_u=offset + units,
                attrs={"benchmark": benchmark, "part": part, "units": units},
            )
        )
        offset += units
    return spans


def _part_costs(evaluation: Any, part: str) -> tuple[int, int, int]:
    """(compile, tracegen, simulate) virtual costs of one part."""
    from repro.experiments.harness import PART_BINARY

    compiled = getattr(evaluation, f"{PART_BINARY[part]}_compile")
    sim = getattr(evaluation, part)
    return (
        compiled.machine.instruction_count(),
        int(evaluation.trace_length),
        int(sim.cycles),
    )


def evaluation_spans(
    trace_id: str, evaluation: Any, *, attempts: int = 0
) -> list[Span]:
    """All deterministic spans of one completed benchmark row.

    Rebuildable from the journaled :class:`BenchmarkEvaluation` alone,
    so ``--resume`` emits the same spans for reused rows as the
    original run did for fresh ones.  A retry span appears only when
    the row needed more than one attempt per part (deterministic under
    seeded retry backoff and value-determining fault plans).
    """
    from repro.experiments.harness import PARTS

    spans: list[Span] = []
    for part in PARTS:
        compile_units, trace_units, sim_units = _part_costs(evaluation, part)
        spans.extend(
            part_task_spans(
                trace_id,
                evaluation.name,
                part,
                compile_units=compile_units,
                trace_units=trace_units,
                sim_units=sim_units,
            )
        )
    if attempts > len(PARTS):
        extra = attempts - len(PARTS)
        spans.append(
            Span(
                trace_id=trace_id,
                span_id=derive_span_id(trace_id, "retry", evaluation.name, attempts),
                parent_id=sweep_span_id(trace_id),
                kind="retry",
                name=evaluation.name,
                start_u=0,
                end_u=extra,
                attrs={"benchmark": evaluation.name, "attempts": attempts},
            )
        )
    return spans


def failure_spans(trace_id: str, failure: Any, *, attempts: int = 1) -> list[Span]:
    """The task span of a benchmark that degraded to a failure record."""
    attempts = max(1, int(attempts))
    return [
        Span(
            trace_id=trace_id,
            span_id=derive_span_id(
                trace_id, "task", failure.benchmark, "failed", attempts
            ),
            parent_id=sweep_span_id(trace_id),
            kind="task",
            name=failure.benchmark,
            start_u=0,
            end_u=attempts,
            attrs={
                "benchmark": failure.benchmark,
                "failed": True,
                "error_type": failure.error_type,
                "attempts": attempts,
            },
        )
    ]


def sweep_span(
    trace_id: str, label: str, spans: Sequence[Span]
) -> Span:
    """The root sweep span: duration = total work of its task spans."""
    total = sum(s.duration_u for s in spans if s.kind == "task")
    tasks = sum(1 for s in spans if s.kind == "task")
    return Span(
        trace_id=trace_id,
        span_id=sweep_span_id(trace_id),
        parent_id=None,
        kind="sweep",
        name=label,
        start_u=0,
        end_u=total,
        attrs={"tasks": tasks},
    )


# ----------------------------------------------------------------- writer
def span_file_name(shard: Optional[str] = None) -> str:
    if not shard:
        return "spans.jsonl"
    from repro.robustness.journal import _slug

    return f"spans-{_slug(shard)}.jsonl"


class SpanWriter:
    """Durable per-shard JSONL span sink inside a run directory.

    Append-only with the journal's flush+fsync discipline; dedupes by
    span_id within one writer so re-emission (resume reuse + fresh
    compute in the same process) costs nothing.  ``trace_id`` is set by
    the sweep driver once computed; executors and heartbeats read it
    back for correlation.
    """

    def __init__(
        self, run_dir: Union[str, os.PathLike], shard: Optional[str] = None
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.shard = shard
        self.path = self.run_dir / span_file_name(shard)
        self._file = open(self.path, "a", encoding="utf-8")
        self._seen: set[str] = set()
        self._lock = threading.Lock()
        self.emitted = 0
        self.trace_id: str = ""

    def write(self, span: Span) -> bool:
        """Append one span; returns False for an in-process duplicate."""
        with self._lock:
            if span.span_id in self._seen:
                return False
            self._seen.add(span.span_id)
            self._file.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
            self._file.flush()
            os.fsync(self._file.fileno())
            self.emitted += 1
            return True

    def write_all(self, spans: Iterable[Span]) -> int:
        return sum(1 for span in spans if self.write(span))

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "SpanWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class WallSpans:
    """Wall-clock orchestration span emitter (dispatch, requeues,
    degradations).

    Times are integer microseconds relative to this emitter's monotonic
    epoch; IDs include a per-emitter sequence number, so wall spans are
    unique but intentionally *not* reproducible across runs.  A ``None``
    writer makes every call a no-op, so executors instrument
    unconditionally.
    """

    def __init__(
        self,
        writer: Optional[SpanWriter],
        *,
        clock=time.monotonic,
    ) -> None:
        self._writer = writer
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self._open: dict[Any, tuple[str, str, int, dict[str, Any]]] = {}

    @property
    def enabled(self) -> bool:
        return self._writer is not None

    def _now_u(self) -> int:
        return int((self._clock() - self._epoch) * 1_000_000)

    def _emit(self, kind: str, name: str, start_u: int, end_u: int, attrs: dict) -> None:
        assert self._writer is not None
        trace_id = self._writer.trace_id
        self._seq += 1
        self._writer.write(
            Span(
                trace_id=trace_id,
                span_id=derive_span_id(trace_id, kind, name, "wall", self._seq),
                parent_id=sweep_span_id(trace_id) if trace_id else None,
                kind=kind,
                name=name,
                start_u=start_u,
                end_u=end_u,
                attrs=attrs,
            )
        )

    def begin(self, key: Any, kind: str, name: str, **attrs: Any) -> None:
        if self._writer is None:
            return
        self._open[key] = (kind, name, self._now_u(), dict(attrs))

    def end(self, key: Any, **attrs: Any) -> None:
        if self._writer is None:
            return
        opened = self._open.pop(key, None)
        if opened is None:
            return
        kind, name, start_u, base = opened
        base.update(attrs)
        self._emit(kind, name, start_u, self._now_u(), base)

    def instant(self, kind: str, name: str, **attrs: Any) -> None:
        if self._writer is None:
            return
        now = self._now_u()
        self._emit(kind, name, now, now, dict(attrs))

    def close(self, **attrs: Any) -> None:
        """End every still-open span (executor shutdown)."""
        for key in list(self._open):
            self.end(key, **attrs)


# ---------------------------------------------------------------- reading
def read_spans(path: Union[str, os.PathLike]) -> list[Span]:
    """Spans from one JSONL file, tolerating torn trailing lines."""
    spans: list[Span] = []
    path = Path(path)
    if not path.exists():
        return spans
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                spans.append(Span.from_dict(data))
            except (SpanSchemaError, ValueError, KeyError, TypeError):
                continue  # torn tail of a crashed writer, or version skew
    return spans


def span_files(run_dir: Union[str, os.PathLike]) -> list[Path]:
    """Every span file in a run directory, primary first then shards in
    sorted order (mirrors ``shard_journal_paths``)."""
    run_dir = Path(run_dir)
    paths = []
    primary = run_dir / "spans.jsonl"
    if primary.exists():
        paths.append(primary)
    paths.extend(
        p
        for p in sorted(run_dir.glob("spans-*.jsonl"))
        if p.name != "spans-wall.jsonl"
    )
    wall = run_dir / "spans-wall.jsonl"
    if wall.exists():
        paths.append(wall)
    return paths


def load_run_spans(run_dir: Union[str, os.PathLike]) -> list[Span]:
    """All spans of a run directory, deduped by span_id."""
    return dedupe_spans(
        span for path in span_files(run_dir) for span in read_spans(path)
    )


def dedupe_spans(spans: Iterable[Span]) -> list[Span]:
    seen: set[str] = set()
    out: list[Span] = []
    for span in spans:
        if span.span_id in seen:
            continue
        seen.add(span.span_id)
        out.append(span)
    return out


def split_spans(spans: Iterable[Span]) -> tuple[list[Span], list[Span]]:
    """(deterministic, wall) partition."""
    det: list[Span] = []
    wall: list[Span] = []
    for span in spans:
        (det if span.deterministic else wall).append(span)
    return det, wall


def canonical_sort_key(span: Span):
    """Content-only ordering: identical span sets serialize to
    identical bytes regardless of emission order."""
    return (
        span.trace_id,
        span.start_u,
        -span.duration_u,
        span.kind,
        span.name,
        span.span_id,
    )


def canonical_lines(spans: Iterable[Span]) -> list[str]:
    ordered = sorted(dedupe_spans(spans), key=canonical_sort_key)
    return [json.dumps(span.as_dict(), sort_keys=True) for span in ordered]


def write_canonical_spans(
    output_dir: Union[str, os.PathLike], spans: Iterable[Span]
) -> tuple[int, int]:
    """Write the canonical merged span files into ``output_dir``.

    ``spans.jsonl`` holds the deterministic class in canonical order
    (byte-identical across equivalent runs); ``spans-wall.jsonl`` holds
    the wall-clock class.  Returns ``(deterministic, wall)`` counts.
    """
    from repro.robustness.atomicio import atomic_write_text

    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    det, wall = split_spans(dedupe_spans(spans))
    atomic_write_text(
        output_dir / "spans.jsonl",
        "".join(line + "\n" for line in canonical_lines(det)),
    )
    if wall:
        atomic_write_text(
            output_dir / "spans-wall.jsonl",
            "".join(line + "\n" for line in canonical_lines(wall)),
        )
    return len(det), len(wall)


# --------------------------------------------------------------- analysis
def summarize_spans(spans: Iterable[Span]) -> dict[str, dict[str, int]]:
    """Per-kind ``{count, units}`` totals (layout-independent)."""
    summary: dict[str, dict[str, int]] = {}
    for span in spans:
        bucket = summary.setdefault(span.kind, {"count": 0, "units": 0})
        bucket["count"] += 1
        bucket["units"] += span.duration_u
    return summary


def critical_path(spans: Iterable[Span]) -> dict[str, Any]:
    """The sweep's critical path on the virtual timeline.

    With unbounded parallelism every task runs concurrently, so the
    sweep cannot finish before its heaviest task does: the critical
    path is that task's compile → tracegen → simulate chain.
    """
    spans = list(spans)
    tasks = [s for s in spans if s.kind == "task"]
    if not tasks:
        return {"task": None, "units": 0, "chain": []}
    heaviest = max(tasks, key=lambda s: (s.duration_u, s.name))
    chain = sorted(
        (s for s in spans if s.parent_id == heaviest.span_id),
        key=lambda s: s.start_u,
    )
    return {
        "task": heaviest.name,
        "units": heaviest.duration_u,
        "chain": [
            {"kind": s.kind, "name": s.name, "units": s.duration_u} for s in chain
        ],
    }


def format_span_summary(spans: Sequence[Span]) -> str:
    """Human rendering of ``repro spans summarize``."""
    det, wall = split_spans(spans)
    lines = [f"spans: {len(det)} deterministic, {len(wall)} wall-clock"]
    summary = summarize_spans(det)
    if summary:
        lines.append(f"{'kind':<10} {'count':>7} {'units':>14}")
        for kind in sorted(summary):
            bucket = summary[kind]
            lines.append(f"{kind:<10} {bucket['count']:>7} {bucket['units']:>14}")
    path = critical_path(det)
    if path["task"] is not None:
        chain = " -> ".join(f"{s['kind']}:{s['units']}" for s in path["chain"])
        lines.append(
            f"critical path: {path['task']} ({path['units']} units) [{chain}]"
        )
    if wall:
        wall_summary = summarize_spans(wall)
        lines.append("wall-clock orchestration (this run only; microseconds):")
        for kind in sorted(wall_summary):
            bucket = wall_summary[kind]
            lines.append(f"  {kind:<12} {bucket['count']:>5} x  {bucket['units']:>12} us")
    return "\n".join(lines)


# ----------------------------------------------------------- chrome trace
def chrome_trace(spans: Iterable[Span]) -> dict[str, Any]:
    """Chrome trace-event JSON (Perfetto-loadable).

    Deterministic spans render on pid 1 ("virtual timeline"), one tid
    per task in sorted-name order; wall-clock spans render on pid 2
    ("orchestration").  Complete events (``ph="X"``) only.
    """
    det, wall = split_spans(dedupe_spans(spans))
    task_tids: dict[str, int] = {
        name: tid + 1
        for tid, name in enumerate(
            sorted({s.name for s in det if s.kind == "task"})
        )
    }
    # Children share their task's track; the sweep span gets tid 0.
    by_id = {s.span_id: s for s in det}

    def det_tid(span: Span) -> int:
        if span.kind == "sweep":
            return 0
        owner = span
        while owner.kind != "task" and owner.parent_id in by_id:
            owner = by_id[owner.parent_id]
        return task_tids.get(owner.name, 0)

    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 0,
            "args": {"name": "virtual timeline (deterministic work units)"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": 2,
            "tid": 0,
            "args": {"name": "orchestration (wall-clock)"},
        },
    ]
    for span in sorted(det, key=canonical_sort_key):
        events.append(
            {
                "name": f"{span.kind}:{span.name}",
                "cat": span.kind,
                "ph": "X",
                "ts": span.start_u,
                "dur": max(span.duration_u, 1),
                "pid": 1,
                "tid": det_tid(span),
                "args": dict(span.attrs, trace_id=span.trace_id),
            }
        )
    wall_tids = {kind: tid + 1 for tid, kind in enumerate(sorted(WALL_KINDS))}
    for span in sorted(wall, key=canonical_sort_key):
        events.append(
            {
                "name": f"{span.kind}:{span.name}",
                "cat": span.kind,
                "ph": "X",
                "ts": span.start_u,
                "dur": max(span.duration_u, 1),
                "pid": 2,
                "tid": wall_tids.get(span.kind, 0),
                "args": dict(span.attrs, trace_id=span.trace_id),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: Any) -> None:
    """Schema-check an exported trace (raises :class:`SpanSchemaError`).

    Asserts the subset of the trace-event format Perfetto requires to
    load the file: a ``traceEvents`` list whose complete events carry
    string ``name``/``ph`` and numeric ``ts``/``dur``/``pid``/``tid``.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise SpanSchemaError("chrome trace must be an object with 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise SpanSchemaError("'traceEvents' must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise SpanSchemaError(f"traceEvents[{i}] is not an object")
        if not isinstance(event.get("name"), str) or not isinstance(
            event.get("ph"), str
        ):
            raise SpanSchemaError(f"traceEvents[{i}] needs string 'name' and 'ph'")
        if event["ph"] not in ("X", "M"):
            raise SpanSchemaError(
                f"traceEvents[{i}] has phase {event['ph']!r}; this exporter "
                "only emits complete ('X') and metadata ('M') events"
            )
        if event["ph"] == "X":
            for key in ("ts", "dur", "pid", "tid"):
                if not isinstance(event.get(key), (int, float)):
                    raise SpanSchemaError(
                        f"traceEvents[{i}] complete event needs numeric {key!r}"
                    )
            if event["dur"] < 0:
                raise SpanSchemaError(f"traceEvents[{i}] has negative duration")


__all__ = [
    "DETERMINISTIC_KINDS",
    "SPAN_KINDS",
    "SPAN_SCHEMA",
    "Span",
    "SpanSchemaError",
    "SpanWriter",
    "WALL_KINDS",
    "WallSpans",
    "canonical_lines",
    "canonical_sort_key",
    "chrome_trace",
    "critical_path",
    "dedupe_spans",
    "derive_span_id",
    "evaluation_spans",
    "failure_spans",
    "format_span_summary",
    "load_run_spans",
    "part_task_spans",
    "read_spans",
    "span_file_name",
    "span_files",
    "split_spans",
    "summarize_spans",
    "sweep_span",
    "sweep_span_id",
    "sweep_trace_id",
    "validate_chrome_trace",
    "write_canonical_spans",
]
