"""Span tracing: content-derived IDs, builders, sinks, analysis, export.

Everything here is pure-unit: builders get hand-made stand-ins for
compile results and evaluations (they only duck-type the few fields the
span code reads), the wall-clock emitter gets a fake clock, and the
chrome export round-trips through ``json.dumps``/``json.loads`` exactly
as the CLI writes it.  The end-to-end identity contract (serial vs
``--jobs`` vs resumed vs sharded) lives in ``test_span_identity``.
"""

import json
import random
from types import SimpleNamespace

import pytest

from repro.obs.spans import (
    DETERMINISTIC_KINDS,
    SPAN_SCHEMA,
    WALL_KINDS,
    Span,
    SpanSchemaError,
    SpanWriter,
    WallSpans,
    canonical_lines,
    canonical_sort_key,
    chrome_trace,
    critical_path,
    dedupe_spans,
    derive_span_id,
    evaluation_spans,
    failure_spans,
    format_span_summary,
    load_run_spans,
    part_task_spans,
    read_spans,
    span_file_name,
    span_files,
    split_spans,
    summarize_spans,
    sweep_span,
    sweep_span_id,
    sweep_trace_id,
    validate_chrome_trace,
    write_canonical_spans,
)

TRACE = "t" * 16


def _compiled(instructions):
    machine = SimpleNamespace(instruction_count=lambda: instructions)
    return SimpleNamespace(machine=machine)


def _evaluation(name="compress", trace_length=500):
    """A duck-typed BenchmarkEvaluation: three parts, distinct costs."""
    return SimpleNamespace(
        name=name,
        trace_length=trace_length,
        native_compile=_compiled(300),
        local_compile=_compiled(310),
        single=SimpleNamespace(cycles=900),
        dual_none=SimpleNamespace(cycles=1100),
        dual_local=SimpleNamespace(cycles=1000),
    )


class TestIds:
    def test_derive_span_id_is_stable_and_content_sensitive(self):
        a = derive_span_id(TRACE, "task", "compress:single", (1, 2, 3))
        assert a == derive_span_id(TRACE, "task", "compress:single", (1, 2, 3))
        assert len(a) == 16 and int(a, 16) >= 0
        assert a != derive_span_id(TRACE, "task", "compress:single", (1, 2, 4))
        assert a != derive_span_id(TRACE, "task", "compress:dual_none", (1, 2, 3))
        assert a != derive_span_id("u" * 16, "task", "compress:single", (1, 2, 3))

    def test_sweep_span_id_needs_only_the_trace_id(self):
        # Workers parent their task spans without any coordination
        # beyond the trace id in the task frame.
        assert sweep_span_id(TRACE) == derive_span_id(TRACE, "sweep", "sweep")

    def test_sweep_trace_id_tracks_value_determining_options(self):
        from repro.experiments.harness import EvaluationOptions

        base = EvaluationOptions(trace_length=600)
        tid = sweep_trace_id("table2", base, ["ora", "compress"])
        assert tid == sweep_trace_id("table2", base, ["compress", "ora"])
        assert tid != sweep_trace_id("figure6", base, ["compress", "ora"])
        assert tid != sweep_trace_id("table2", base, ["compress"])
        other = EvaluationOptions(trace_length=700)
        assert tid != sweep_trace_id("table2", other, ["compress", "ora"])

    def test_layout_only_options_do_not_move_the_trace_id(self):
        from dataclasses import replace

        from repro.experiments.harness import EvaluationOptions

        base = EvaluationOptions(trace_length=600)
        wide = replace(base, jobs=8, task_timeout=5.0, redispatch_budget=0)
        assert sweep_trace_id("table2", base, ["ora"]) == sweep_trace_id(
            "table2", wide, ["ora"]
        )


class TestBuilders:
    def test_part_task_spans_lay_stages_end_to_end(self):
        spans = part_task_spans(
            TRACE, "compress", "single",
            compile_units=300, trace_units=500, sim_units=900,
        )
        task, compile_s, tracegen, simulate = spans
        assert [s.kind for s in spans] == ["task", "compile", "tracegen", "simulate"]
        assert task.parent_id == sweep_span_id(TRACE)
        assert all(s.parent_id == task.span_id for s in spans[1:])
        assert all(s.name == "compress:single" for s in spans)
        assert (compile_s.start_u, compile_s.end_u) == (0, 300)
        assert (tracegen.start_u, tracegen.end_u) == (300, 800)
        assert (simulate.start_u, simulate.end_u) == (800, 1700)
        assert task.duration_u == 1700
        assert all(s.deterministic for s in spans)

    def test_evaluation_spans_cover_every_part(self):
        spans = evaluation_spans(TRACE, _evaluation())
        assert len(spans) == 12  # 3 parts x (task + 3 stages)
        by_kind = summarize_spans(spans)
        assert by_kind["task"]["count"] == 3
        # dual_local simulates the locally rescheduled binary.
        local = [
            s for s in spans
            if s.kind == "compile" and s.attrs["part"] == "dual_local"
        ]
        assert local[0].duration_u == 310

    def test_retry_span_only_past_one_attempt_per_part(self):
        assert len(evaluation_spans(TRACE, _evaluation(), attempts=3)) == 12
        spans = evaluation_spans(TRACE, _evaluation(), attempts=5)
        retries = [s for s in spans if s.kind == "retry"]
        assert len(retries) == 1
        assert retries[0].duration_u == 2
        assert retries[0].attrs["attempts"] == 5

    def test_failure_spans_record_the_error(self):
        failure = SimpleNamespace(benchmark="gcc1", error_type="SimulationError")
        (span,) = failure_spans(TRACE, failure, attempts=4)
        assert span.kind == "task" and span.attrs["failed"] is True
        assert span.attrs["error_type"] == "SimulationError"
        assert span.duration_u == 4

    def test_sweep_span_totals_its_tasks(self):
        children = part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        ) + part_task_spans(
            TRACE, "b", "single", compile_units=10, trace_units=20, sim_units=30
        )
        root = sweep_span(TRACE, "table2", children)
        assert root.span_id == sweep_span_id(TRACE)
        assert root.parent_id is None
        assert root.duration_u == 6 + 60
        assert root.attrs["tasks"] == 2


class TestSpanRecord:
    def test_round_trip(self):
        span = part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        )[0]
        clone = Span.from_dict(json.loads(json.dumps(span.as_dict())))
        assert clone == span
        assert clone.schema == SPAN_SCHEMA

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpanSchemaError):
            Span.from_dict(
                {
                    "trace_id": TRACE, "span_id": "a" * 16, "parent_id": None,
                    "kind": "teleport", "name": "x", "start_u": 0, "end_u": 1,
                    "attrs": {}, "schema": SPAN_SCHEMA,
                }
            )

    def test_kind_partition_is_total(self):
        assert not (DETERMINISTIC_KINDS & WALL_KINDS)


class TestWriter:
    def test_writer_dedupes_within_process(self, tmp_path):
        spans = part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        )
        with SpanWriter(tmp_path) as writer:
            assert writer.write_all(spans) == 4
            assert writer.write_all(spans) == 0  # resume re-emission
            assert writer.emitted == 4
        assert len(read_spans(tmp_path / "spans.jsonl")) == 4

    def test_reopened_writer_appends_duplicates_for_merge_to_fold(self, tmp_path):
        spans = part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        )
        for _ in range(2):  # two processes (original + resumed)
            with SpanWriter(tmp_path) as writer:
                writer.write_all(spans)
        assert len(read_spans(tmp_path / "spans.jsonl")) == 8
        assert len(load_run_spans(tmp_path)) == 4  # dedupe by span_id

    def test_torn_trailing_line_tolerated(self, tmp_path):
        spans = part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        )
        with SpanWriter(tmp_path) as writer:
            writer.write_all(spans)
        path = tmp_path / "spans.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"trace_id": "tor')  # SIGKILL mid-append
        assert len(read_spans(path)) == 4

    def test_shard_file_naming(self):
        assert span_file_name() == "spans.jsonl"
        assert span_file_name("alpha") == "spans-alpha.jsonl"

    def test_span_files_order_primary_then_shards(self, tmp_path):
        for name in ("spans-beta.jsonl", "spans.jsonl", "spans-alpha.jsonl"):
            (tmp_path / name).write_text("")
        assert [p.name for p in span_files(tmp_path)] == [
            "spans.jsonl", "spans-alpha.jsonl", "spans-beta.jsonl",
        ]


class TestWallSpans:
    def _wall(self, tmp_path):
        ticks = iter(range(100))
        writer = SpanWriter(tmp_path, shard="coord")
        writer.trace_id = TRACE
        return writer, WallSpans(writer, clock=lambda: next(ticks))

    def test_begin_end_measures_the_interval(self, tmp_path):
        writer, wall = self._wall(tmp_path)
        wall.begin(("ticket", 1), "dispatch", "compress:single", host="alpha")
        wall.end(("ticket", 1), ok=True)
        writer.close()
        (span,) = read_spans(writer.path)
        assert span.kind == "dispatch"
        assert not span.deterministic
        assert span.duration_u == 1_000_000  # one fake-clock tick
        assert span.attrs == {"host": "alpha", "ok": True}
        assert span.parent_id == sweep_span_id(TRACE)

    def test_end_without_begin_is_a_no_op(self, tmp_path):
        writer, wall = self._wall(tmp_path)
        wall.end(("ticket", 99), ok=False)
        writer.close()
        assert read_spans(writer.path) == []

    def test_instant_and_close(self, tmp_path):
        writer, wall = self._wall(tmp_path)
        wall.instant("requeue", "compress:single", reason="worker-lost")
        wall.begin(("ticket", 7), "requeue", "compress:dual_none")
        wall.close(reason="shutdown")
        writer.close()
        spans = read_spans(writer.path)
        assert [s.kind for s in spans] == ["requeue", "requeue"]
        assert spans[0].duration_u == 0
        assert spans[1].attrs["reason"] == "shutdown"

    def test_sequence_keeps_repeated_events_distinct(self, tmp_path):
        writer, wall = self._wall(tmp_path)
        for _ in range(3):
            wall.instant("requeue", "compress:single", reason="r")
        writer.close()
        assert len({s.span_id for s in read_spans(writer.path)}) == 3

    def test_none_writer_disables_everything(self):
        wall = WallSpans(None)
        assert not wall.enabled
        wall.begin("k", "dispatch", "x")
        wall.end("k")
        wall.instant("requeue", "x")
        wall.close()  # nothing raises, nothing written


class TestCanonical:
    def _mixed(self):
        det = part_task_spans(
            TRACE, "b", "single", compile_units=5, trace_units=5, sim_units=5
        ) + part_task_spans(
            TRACE, "a", "single", compile_units=1, trace_units=2, sim_units=3
        )
        wall = Span(
            trace_id=TRACE, span_id="f" * 16, parent_id=None, kind="dispatch",
            name="a:single", start_u=0, end_u=10, attrs={},
        )
        return det, wall

    def test_split_spans_partitions_by_kind(self):
        det, wall = self._mixed()
        got_det, got_wall = split_spans(det + [wall])
        assert len(got_det) == 8 and got_wall == [wall]

    def test_canonical_lines_are_shuffle_invariant(self):
        det, _ = self._mixed()
        want = canonical_lines(det)
        shuffled = det[:]
        random.Random(7).shuffle(shuffled)
        assert canonical_lines(shuffled + det) == want  # dupes fold too
        keys = [canonical_sort_key(s) for s in dedupe_spans(det)]
        assert sorted(keys) == sorted(keys)  # total order, no ties needed

    def test_write_canonical_spans_splits_wall_records(self, tmp_path):
        det, wall = self._mixed()
        counts = write_canonical_spans(tmp_path, det + [wall])
        assert counts == (8, 1)
        assert len(read_spans(tmp_path / "spans.jsonl")) == 8
        assert len(read_spans(tmp_path / "spans-wall.jsonl")) == 1

    def test_no_wall_file_without_wall_spans(self, tmp_path):
        det, _ = self._mixed()
        assert write_canonical_spans(tmp_path, det) == (8, 0)
        assert not (tmp_path / "spans-wall.jsonl").exists()


class TestAnalysis:
    def _sweep(self):
        spans = evaluation_spans(TRACE, _evaluation("compress"))
        spans += evaluation_spans(TRACE, _evaluation("ora", trace_length=100))
        spans.append(sweep_span(TRACE, "table2", spans))
        return spans

    def test_summarize_counts_and_units(self):
        summary = summarize_spans(self._sweep())
        assert summary["task"]["count"] == 6
        assert summary["simulate"]["count"] == 6
        assert summary["sweep"]["count"] == 1
        assert summary["sweep"]["units"] == summary["task"]["units"]

    def test_critical_path_is_the_heaviest_task(self):
        path = critical_path(self._sweep())
        # compress parts carry trace_length=500; its dual_none
        # (300 + 500 + 1100) is the heaviest task.
        assert path["task"] == "compress:dual_none"
        assert path["units"] == 1900
        stages = [(s["kind"], s["units"]) for s in path["chain"]]
        assert stages == [("compile", 300), ("tracegen", 500), ("simulate", 1100)]

    def test_critical_path_of_nothing(self):
        assert critical_path([]) == {"task": None, "units": 0, "chain": []}

    def test_format_span_summary_mentions_the_path(self):
        text = format_span_summary(self._sweep())
        assert "compress:dual_none" in text
        assert "simulate" in text


class TestChromeTrace:
    def _trace(self):
        spans = self._det() + [
            Span(
                trace_id=TRACE, span_id="f" * 16, parent_id=None,
                kind="dispatch", name="a:single", start_u=3, end_u=9, attrs={},
            )
        ]
        return chrome_trace(spans)

    def _det(self):
        spans = evaluation_spans(TRACE, _evaluation())
        spans.append(sweep_span(TRACE, "table2", spans))
        return spans

    def test_round_trips_through_json(self):
        document = json.loads(json.dumps(self._trace()))
        validate_chrome_trace(document)  # exactly what the CLI asserts
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 13 + 1  # 13 deterministic + 1 wall
        assert all(e["dur"] >= 1 for e in complete)

    def test_virtual_and_wall_timelines_use_distinct_pids(self):
        events = [e for e in self._trace()["traceEvents"] if e["ph"] == "X"]
        det = [e for e in events if e["cat"] in DETERMINISTIC_KINDS]
        wall = [e for e in events if e["cat"] in WALL_KINDS]
        assert det and wall
        assert {e["pid"] for e in det} == {1}
        assert {e["pid"] for e in wall} == {2}
        assert any(
            e["ph"] == "M" for e in self._trace()["traceEvents"]
        )  # process names

    def test_stages_nest_inside_their_task_tid(self):
        events = self._trace()["traceEvents"]
        lanes = {
            event["name"].split(":", 1)[1]: set()
            for event in events
            if event["ph"] == "X" and event["pid"] == 1
        }
        for event in events:
            if event["ph"] == "X" and event["pid"] == 1:
                lanes[event["name"].split(":", 1)[1]].add(event["tid"])
        # A task and its three stages share one thread lane.
        assert len(lanes["compress:single"]) == 1
        assert lanes["compress:single"] != lanes["compress:dual_none"]

    def test_validation_rejects_malformed_documents(self):
        for bad in (
            "nope",
            {},
            {"traceEvents": "nope"},
            {"traceEvents": [{"ph": "X"}]},
            {"traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}
            ]},  # missing dur
            {"traceEvents": [
                {"ph": "Q", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": 1}
            ]},
        ):
            with pytest.raises(SpanSchemaError):
                validate_chrome_trace(bad)

    def test_empty_trace_is_valid(self):
        document = chrome_trace([])
        validate_chrome_trace(document)
