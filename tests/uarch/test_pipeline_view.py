"""Tests for the pipeline chart renderer."""

from repro.isa.instructions import MachineInstruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import int_reg
from repro.uarch.config import dual_cluster_config, single_cluster_config
from repro.uarch.pipeline_view import build_rows, render_pipeline

from tests.uarch.helpers import run_trace, trace_from_instructions


def add(dest, *srcs):
    return MachineInstruction(
        Opcode.ADDQ, dest=int_reg(dest), srcs=tuple(int_reg(s) for s in srcs)
    )


class TestRows:
    def test_single_instruction_one_row(self):
        p, _ = run_trace([add(4, 0, 2)], dual_cluster_config())
        rows = build_rows(p.recorder.events)
        assert len(rows) == 1
        assert rows[0].role == "master"

    def test_dual_instruction_two_rows(self):
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        rows = build_rows(p.recorder.events)
        assert len(rows) == 2
        assert {r.role for r in rows} == {"master", "slave"}

    def test_window_filters(self):
        p, _ = run_trace([add(0, 28, 28) for _ in range(6)], single_cluster_config())
        rows = build_rows(p.recorder.events, first_seq=2, last_seq=3)
        assert {r.seq for r in rows} == {2, 3}

    def test_event_letters(self):
        p, _ = run_trace([add(4, 0, 2)], dual_cluster_config())
        rows = build_rows(p.recorder.events)
        letters = set(rows[0].events.values())
        assert {"D", "I", "C"} <= letters
        # Retirement is attached to the master row unless it lands on the
        # same cycle as completion (the cell keeps the completion letter).
        assert "T" in letters or "C" in letters


class TestRendering:
    def test_render_contains_legend_and_rows(self):
        instrs = [add(4, 0, 1)]
        p, _ = run_trace(instrs, dual_cluster_config())
        trace = trace_from_instructions(instrs)
        text = render_pipeline(p.recorder.events, trace)
        assert "D=dispatch" in text
        assert "master" in text and "slave" in text
        assert "addq" in text

    def test_render_empty_window(self):
        assert "no events" in render_pipeline([], first_seq=10, last_seq=20)

    def test_render_deterministic(self):
        instrs = [add(4, 0, 1), add(2, 2, 2)]
        p1, _ = run_trace(instrs, dual_cluster_config())
        p2, _ = run_trace(instrs, dual_cluster_config())
        assert render_pipeline(p1.recorder.events) == render_pipeline(p2.recorder.events)

    def test_slave_issue_visible_before_master(self):
        """The rendered chart shows the Figure 2 ordering."""
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        text = render_pipeline(p.recorder.events)
        lines = text.splitlines()[1:]
        master_line = next(line for line in lines if "master" in line)
        slave_line = next(line for line in lines if "slave" in line)
        assert slave_line.index("I") < master_line.index("I")

    def test_max_width_truncates_columns(self):
        p, _ = run_trace([add(0, 28, 28) for _ in range(8)], single_cluster_config())
        narrow = render_pipeline(p.recorder.events, max_width=4)
        wide = render_pipeline(p.recorder.events, max_width=200)
        narrow_cells = narrow.splitlines()[1].split("@c")[1][1:]
        wide_cells = wide.splitlines()[1].split("@c")[1][1:]
        assert len(narrow_cells) <= len(wide_cells)
        assert "cycles" in narrow.splitlines()[0]


class TestEventSources:
    """The renderer accepts recorders, typed events, and raw tuples."""

    def test_events_are_typed(self):
        from repro.obs.trace import PipelineEvent

        p, _ = run_trace([add(4, 0, 2)], dual_cluster_config())
        assert all(isinstance(e, PipelineEvent) for e in p.recorder.events)

    def test_recorder_renders_like_its_events(self):
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        assert render_pipeline(p.recorder) == render_pipeline(p.recorder.events)

    def test_raw_tuples_still_render(self):
        p, _ = run_trace([add(4, 0, 1)], dual_cluster_config())
        raw = [tuple(e) for e in p.recorder.events]
        assert render_pipeline(raw) == render_pipeline(p.recorder.events)
