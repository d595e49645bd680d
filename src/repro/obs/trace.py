"""Typed pipeline tracing: the flight recorder's event stream.

Each event is a :class:`PipelineEvent` — a typed, immutable record that
*behaves* like the raw ``(cycle, event, seq, role, cluster)`` 5-tuple
(indexing, unpacking, equality), so consumers may unpack it — recorded
through a :class:`TraceRecorder` (``processor.recorder``) that fans
events out to pluggable sinks:

* :class:`MemorySink` — unbounded in-memory list (``recorder.events``);
* :class:`RingSink` — bounded ring buffer keeping the last N events,
  for long runs where only the recent past matters;
* :class:`JsonlSink` — streaming JSONL file, one event per line, so a
  multi-million-cycle trace never has to fit in memory and a killed run
  still leaves every flushed event on disk.

Overhead discipline: the processor holds ``recorder = None`` by default
and its hot path pays exactly one attribute load and ``None`` check per
event — the recorder, sinks, and event construction only exist when a
caller opts in.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

#: Event kinds the processor emits, in pipeline order.
EVENT_KINDS = ("fetch", "dispatch", "issue", "reissue", "complete", "retire")


class PipelineEvent(NamedTuple):
    """One pipeline event of one uop (or instruction, for retires).

    A ``NamedTuple`` on purpose: it is typed and immutable, yet remains
    indexable and unpackable exactly like the raw 5-tuples it replaced,
    so pre-existing analyses (``for cycle, kind, seq, role, cluster in
    log``) run unmodified.
    """

    cycle: int
    kind: str
    seq: int
    role: str = "-"
    cluster: int = -1

    def as_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "seq": self.seq,
            "role": self.role,
            "cluster": self.cluster,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "PipelineEvent":
        return cls(
            int(record["cycle"]),
            str(record["kind"]),
            int(record["seq"]),
            str(record.get("role", "-")),
            int(record.get("cluster", -1)),
        )


class TraceSink:
    """Destination for recorded events.  Subclasses override ``append``."""

    def append(self, event: PipelineEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - default no-op
        pass


class MemorySink(TraceSink):
    """Unbounded in-memory event list."""

    def __init__(self) -> None:
        self.events: list[PipelineEvent] = []

    def append(self, event: PipelineEvent) -> None:
        self.events.append(event)


class RingSink(TraceSink):
    """Bounded ring buffer keeping only the most recent ``maxlen`` events."""

    def __init__(self, maxlen: int) -> None:
        if maxlen <= 0:
            raise ValueError(f"ring sink needs maxlen >= 1, got {maxlen}")
        self._ring: deque[PipelineEvent] = deque(maxlen=maxlen)
        self.dropped = 0

    @property
    def events(self) -> list[PipelineEvent]:
        return list(self._ring)

    def append(self, event: PipelineEvent) -> None:
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)


class JsonlSink(TraceSink):
    """Streaming JSONL sink: one event per line, flushed on close.

    The file is opened lazily, in append mode, on the first event.
    """

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self.written = 0
        self._fh: Optional[IO[str]] = None

    def append(self, event: PipelineEvent) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(event.as_dict(), sort_keys=True) + "\n")
        self.written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None


class TraceRecorder:
    """Fans pipeline events out to one or more sinks.

    The processor calls :meth:`record` with the raw event fields; the
    recorder owns constructing the typed event exactly once per call.
    """

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        if not sinks:
            raise ValueError("a TraceRecorder needs at least one sink")
        self.sinks: list[TraceSink] = list(sinks)
        self.recorded = 0

    # ------------------------------------------------------------ factories
    @classmethod
    def memory(cls) -> "TraceRecorder":
        return cls([MemorySink()])

    @classmethod
    def ring(cls, maxlen: int) -> "TraceRecorder":
        return cls([RingSink(maxlen)])

    @classmethod
    def jsonl(
        cls, path: Union[str, os.PathLike], keep_memory: bool = False
    ) -> "TraceRecorder":
        sinks: list[TraceSink] = [JsonlSink(path)]
        if keep_memory:
            sinks.insert(0, MemorySink())
        return cls(sinks)

    # ------------------------------------------------------------------ API
    def record(
        self, cycle: int, kind: str, seq: int, role: str = "-", cluster: int = -1
    ) -> None:
        event = PipelineEvent(cycle, kind, seq, role, cluster)
        self.recorded += 1
        for sink in self.sinks:
            sink.append(event)

    @property
    def events(self) -> list[PipelineEvent]:
        """Events held by the first sink that retains any (ring or memory).

        A pure-JSONL recorder retains nothing in memory and returns an
        empty list — read the file back with :func:`read_jsonl`.
        """
        for sink in self.sinks:
            events = getattr(sink, "events", None)
            if events is not None:
                return events
        return []

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_jsonl(path: Union[str, os.PathLike]) -> list[PipelineEvent]:
    """Load a :class:`JsonlSink` file back into typed events.

    Torn trailing lines (a killed writer) are skipped, mirroring the run
    journal's reader contract.
    """
    events: list[PipelineEvent] = []
    with Path(path).open("r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(PipelineEvent.from_dict(json.loads(line)))
            except (ValueError, KeyError, TypeError):
                continue
    return events


#: Anything renderable as an event stream: a recorder, typed events, or
#: the legacy raw 5-tuples.
EventSource = Union[TraceRecorder, Sequence[PipelineEvent], Sequence[tuple], Iterable]


def iter_events(source: EventSource) -> Iterator[PipelineEvent]:
    """Normalise any event source into typed events."""
    if isinstance(source, TraceRecorder):
        source = source.events
    for item in source:
        if isinstance(item, PipelineEvent):
            yield item
        else:
            yield PipelineEvent(*item)


__all__ = [
    "EVENT_KINDS",
    "EventSource",
    "JsonlSink",
    "MemorySink",
    "PipelineEvent",
    "RingSink",
    "TraceRecorder",
    "TraceSink",
    "iter_events",
    "read_jsonl",
]
