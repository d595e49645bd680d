"""``repro top``: the renderer is a pure function of the run directory.

Every test builds a directory with the same durable records a real
sweep leaves behind (journal shards, heartbeats, degradation events,
span files) and asserts on :func:`collect_status` /
:func:`render_status` with an injected ``now`` — no sleeping, no
subprocesses, no screen control.
"""

import os
import time

from repro.cli import main
from repro.obs.spans import SpanWriter, part_task_spans
from repro.obs.top import (
    ACTIVE_WINDOW_S,
    collect_status,
    render_status,
)
from repro.robustness.journal import RunJournal

TRACE = "t" * 16


def _populate(run_dir):
    """Two shards mid-sweep: alpha active with a heartbeat, beta idle."""
    with RunJournal(run_dir, shard="alpha") as journal:
        journal.record_completed("table2:compress", "fp1")
        journal.record_completed("table2:ora", "fp2")
        journal.record_heartbeat(
            {
                "label": "table2", "done": 2, "total": 4, "elapsed_s": 10.0,
                "rate_rows_per_s": 0.2, "eta_s": 10.0, "spans_emitted": 9,
                "journal_lag_s": 0.4,
            }
        )
    with RunJournal(run_dir, shard="beta") as journal:
        journal.record_failed("table2:gcc1", "fp3", error={"type": "SimError"})
        journal.record_event("executor_degradation", {"reason": "host-lost"})
    with SpanWriter(run_dir, shard="alpha") as writer:
        writer.write_all(
            part_task_spans(
                TRACE, "compress", "single",
                compile_units=1, trace_units=2, sim_units=3,
            )
        )
    return run_dir


class TestCollect:
    def test_counts_rows_heartbeats_events_and_spans(self, tmp_path):
        status = collect_status(_populate(tmp_path))
        assert status.rows_completed == 2
        assert status.rows_failed == 1
        assert [s.name for s in status.shards] == ["alpha", "beta"]
        alpha = status.shards[0]
        assert alpha.heartbeat["done"] == 2
        assert status.shards[1].heartbeat is None
        assert [e["kind"] for e in status.events] == ["executor_degradation"]
        assert status.span_files == {"spans-alpha.jsonl": 4}

    def test_active_window_follows_mtime(self, tmp_path):
        _populate(tmp_path)
        now = time.time()
        fresh = collect_status(tmp_path, now=now)
        assert all(shard.active for shard in fresh.shards)
        stale = collect_status(tmp_path, now=now + ACTIVE_WINDOW_S + 60.0)
        assert not any(shard.active for shard in stale.shards)

    def test_empty_directory(self, tmp_path):
        status = collect_status(tmp_path)
        assert status.shards == [] and status.span_files == {}

    def test_resumed_row_counts_once(self, tmp_path):
        # A row that failed and then completed on --resume is one
        # completed row: the latest record per key wins, as on resume.
        with RunJournal(tmp_path) as journal:
            journal.record_failed("table2:ora", "fp", error={"type": "SimError"})
        with RunJournal(tmp_path) as journal:
            journal.record_completed("table2:ora", "fp")
        status = collect_status(tmp_path)
        assert (status.rows_completed, status.rows_failed) == (1, 0)


class TestRender:
    def test_frame_contents(self, tmp_path):
        frame = render_status(_populate(tmp_path), now=time.time())
        assert "rows: 2 completed, 1 failed, across 2 shard(s)" in frame
        assert "2/4 rows (50%)" in frame
        assert "9 spans" in frame
        assert "spans-alpha.jsonl" in frame and "4 record(s)" in frame
        assert "executor_degradation: host-lost" in frame
        lines = {line.split()[0]: line for line in frame.splitlines() if line}
        assert "active" in lines["alpha"]
        assert "no heartbeat journaled" in lines["beta"]

    def test_idle_after_the_window(self, tmp_path):
        _populate(tmp_path)
        frame = render_status(tmp_path, now=time.time() + ACTIVE_WINDOW_S + 60.0)
        assert "active" not in frame

    def test_empty_directory_hint(self, tmp_path):
        frame = render_status(tmp_path)
        assert "no journal files yet" in frame

    def test_mtime_tracks_journal_appends(self, tmp_path):
        _populate(tmp_path)
        journal = tmp_path / "journal-alpha.jsonl"
        old = time.time() - 3600.0
        os.utime(journal, (old, old))
        status = collect_status(tmp_path, now=time.time())
        assert not status.shards[0].active
        assert status.shards[0].age_s > ACTIVE_WINDOW_S


class TestCLI:
    def test_top_once_prints_a_frame(self, tmp_path, capsys):
        _populate(tmp_path)
        main(["top", str(tmp_path), "--once"])
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "2 completed" in out
        assert "\033[2J" not in out  # --once never clears the screen
