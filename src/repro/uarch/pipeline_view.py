"""Textual pipeline diagrams from the processor's recorded events.

Renders classic pipeline charts — one row per dynamic instruction, one
column per cycle — from a :class:`~repro.uarch.processor.Processor` run
with tracing enabled (a :class:`~repro.obs.trace.TraceRecorder` on
``processor.recorder``, or its recorded events).
Dual-distributed instructions get one row per copy, making the
master/slave interplay of Figures 2-5 visible on real code:

    #0 addq r2, r1 -> r4   master@c0  ..D.IC
    #0                     slave @c1  ..DIC.

Stage letters: ``D`` dispatch, ``I`` issue, ``R`` re-issue (a scenario-5
slave's result phase), ``C`` complete, ``T`` retire.

Both entry points take any :data:`~repro.obs.trace.EventSource`: a
recorder, typed :class:`~repro.obs.trace.PipelineEvent` lists, or raw
5-tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.trace import EventSource, iter_events
from repro.workloads.trace import DynamicInstruction

_STAGE_LETTER = {
    "dispatch": "D",
    "issue": "I",
    "reissue": "R",
    "complete": "C",
    "retire": "T",
}


@dataclass
class _Row:
    seq: int
    role: str
    cluster: int
    events: dict[int, str] = field(default_factory=dict)  # cycle -> letter


def build_rows(
    event_log: EventSource,
    first_seq: int = 0,
    last_seq: Optional[int] = None,
) -> list[_Row]:
    """Group recorded events into per-copy rows within a sequence window."""
    rows: dict[tuple[int, str, int], _Row] = {}
    retires: dict[int, int] = {}
    for cycle, kind, seq, role, cluster in iter_events(event_log):
        if seq < first_seq or (last_seq is not None and seq > last_seq):
            continue
        if kind == "retire":
            retires[seq] = cycle
            continue
        letter = _STAGE_LETTER.get(kind)
        if letter is None:
            continue
        key = (seq, role, cluster)
        row = rows.get(key)
        if row is None:
            row = rows[key] = _Row(seq, role, cluster)
        row.events[cycle] = letter
    # Attach retirement to each instruction's master row (or only row).
    for (seq, role, _cluster), row in rows.items():
        if role == "master" and seq in retires:
            cycle = retires[seq]
            row.events.setdefault(cycle, "T")
    return sorted(rows.values(), key=lambda r: (r.seq, r.role))


def render_pipeline(
    event_log: EventSource,
    trace: Optional[Sequence[DynamicInstruction]] = None,
    first_seq: int = 0,
    last_seq: Optional[int] = None,
    max_width: int = 64,
) -> str:
    """Render the pipeline chart as a string.

    Args:
        event_log: ``Processor.recorder`` (or its ``events``) after a run.
        trace: optional trace for instruction disassembly in row labels.
        first_seq/last_seq: window of dynamic instructions to show.
        max_width: maximum number of cycle columns.
    """
    rows = build_rows(event_log, first_seq, last_seq)
    if not rows:
        return "(no events in window)"
    start = min(min(r.events) for r in rows if r.events)
    end = max(max(r.events) for r in rows if r.events)
    end = min(end, start + max_width - 1)

    lines = [f"cycles {start}..{end} (D=dispatch I=issue R=reissue C=complete T=retire)"]
    shown_seq = None
    for row in rows:
        if trace is not None and row.seq < len(trace) and row.seq != shown_seq:
            label = f"#{row.seq} {trace[row.seq].instr.format()}"
        elif row.seq != shown_seq:
            label = f"#{row.seq}"
        else:
            label = ""
        shown_seq = row.seq
        cells = "".join(
            row.events.get(cycle, ".") for cycle in range(start, end + 1)
        )
        lines.append(f"{label:<30.30} {row.role:<6}@c{row.cluster} {cells}")
    return "\n".join(lines)
