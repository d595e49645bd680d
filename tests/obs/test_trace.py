"""Typed pipeline tracing: events, sinks, and the recorder."""

import json

import pytest

from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    PipelineEvent,
    RingSink,
    TraceRecorder,
    iter_events,
    read_jsonl,
)
from repro.uarch.config import default_assignment_for, dual_cluster_config
from repro.uarch.processor import Processor

from tests.uarch.helpers import trace_from_instructions
from tests.uarch.test_pipeline_view import add


class TestPipelineEvent:
    def test_tuple_compatibility(self):
        event = PipelineEvent(3, "issue", 7, "master", 1)
        cycle, kind, seq, role, cluster = event
        assert (cycle, kind, seq, role, cluster) == (3, "issue", 7, "master", 1)
        assert event[0] == 3 and event[1] == "issue"
        assert event == (3, "issue", 7, "master", 1)

    def test_defaults(self):
        event = PipelineEvent(0, "retire", 5)
        assert event.role == "-" and event.cluster == -1

    def test_dict_round_trip(self):
        event = PipelineEvent(11, "complete", 2, "slave", 0)
        assert PipelineEvent.from_dict(event.as_dict()) == event


class TestSinks:
    def test_memory_sink_keeps_everything(self):
        recorder = TraceRecorder.memory()
        for cycle in range(5):
            recorder.record(cycle, "issue", cycle)
        assert recorder.recorded == 5
        assert len(recorder.events) == 5

    def test_ring_sink_bounds_and_counts_drops(self):
        recorder = TraceRecorder.ring(3)
        for cycle in range(10):
            recorder.record(cycle, "issue", cycle)
        (ring,) = recorder.sinks
        assert [e.cycle for e in recorder.events] == [7, 8, 9]
        assert ring.dropped == 7

    def test_ring_sink_rejects_bad_maxlen(self):
        with pytest.raises(ValueError, match="maxlen"):
            RingSink(0)

    def test_recorder_needs_a_sink(self):
        with pytest.raises(ValueError, match="at least one sink"):
            TraceRecorder([])

    def test_fan_out_to_multiple_sinks(self):
        memory, ring = MemorySink(), RingSink(2)
        recorder = TraceRecorder([memory, ring])
        for cycle in range(4):
            recorder.record(cycle, "dispatch", cycle)
        assert len(memory.events) == 4
        assert len(ring.events) == 2


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TraceRecorder.jsonl(path) as recorder:
            recorder.record(0, "dispatch", 0, "master", 1)
            recorder.record(2, "issue", 0, "master", 1)
        events = read_jsonl(path)
        assert events == [
            PipelineEvent(0, "dispatch", 0, "master", 1),
            PipelineEvent(2, "issue", 0, "master", 1),
        ]

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TraceRecorder.jsonl(path) as recorder:
            recorder.record(0, "issue", 0)
        with path.open("a") as fh:
            fh.write('{"cycle": 1, "kind": "iss')  # killed mid-write
        assert read_jsonl(path) == [PipelineEvent(0, "issue", 0)]

    def test_lazy_open_writes_nothing_for_no_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()


class TestIterEvents:
    def test_raw_tuples_upgraded(self):
        events = list(iter_events([(0, "issue", 1, "master", 0)]))
        assert events == [PipelineEvent(0, "issue", 1, "master", 0)]

    def test_recorder_source(self):
        recorder = TraceRecorder.memory()
        recorder.record(4, "retire", 9)
        assert [e.kind for e in iter_events(recorder)] == ["retire"]


class TestProcessorRecorder:
    def test_jsonl_recorder_streams_run(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = dual_cluster_config()
        p = Processor(config, default_assignment_for(config))
        p.recorder = TraceRecorder.jsonl(path)
        p.run(trace_from_instructions([add(4, 0, 1), add(2, 4, 4)]))
        p.recorder.close()
        events = read_jsonl(path)
        assert events
        kinds = {e.kind for e in events}
        assert {"dispatch", "issue", "complete", "retire"} <= kinds
        assert json.loads(path.read_text().splitlines()[0])["cycle"] >= 0
