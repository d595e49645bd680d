"""Sweep heartbeats and their durable journal records."""

import logging

from repro.obs.heartbeat import Heartbeat
from repro.perf.cache import ArtifactCache
from repro.robustness.journal import RunJournal


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCadence:
    def test_emits_on_interval(self, caplog, monkeypatch):
        # The CLI's setup_logging turns propagation off for the "repro"
        # tree; restore it so caplog (rooted at the root logger) sees us.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        clock = FakeClock()
        hb = Heartbeat(10, interval_s=5.0, clock=clock)
        with caplog.at_level(logging.INFO, logger="repro.heartbeat"):
            hb.note("a")          # 0s elapsed: silent
            clock.now += 6
            hb.note("b")          # past the interval: emits
        assert hb.emitted == 1
        assert "2/10 rows" in caplog.text

    def test_final_note_always_emits(self):
        clock = FakeClock()
        hb = Heartbeat(2, interval_s=3600.0, clock=clock)
        hb.note()
        hb.note()
        assert hb.emitted == 1  # done == total forces the last line out

    def test_none_interval_disables(self):
        hb = Heartbeat(2, interval_s=None, clock=FakeClock())
        hb.note()
        hb.note()
        assert hb.emitted == 0
        assert hb.done == 2  # counters still advance

    def test_zero_interval_emits_every_note(self):
        hb = Heartbeat(5, interval_s=0, clock=FakeClock())
        for _ in range(3):
            hb.note()
        assert hb.emitted == 3


class TestSnapshot:
    def test_eta_math(self):
        clock = FakeClock()
        hb = Heartbeat(4, interval_s=None, clock=clock)
        hb.note()
        clock.now += 10
        snap = hb.snapshot()
        assert snap["done"] == 1 and snap["total"] == 4
        assert snap["elapsed_s"] == 10.0
        assert snap["eta_s"] == 30.0  # 10s/row, 3 rows left

    def test_no_eta_before_first_row(self):
        assert Heartbeat(4, clock=FakeClock()).snapshot()["eta_s"] is None

    def test_zero_elapsed_with_rows_done_is_eta_now(self):
        # A resumed sweep can finish rows in zero wall time (all cache
        # hits under a coarse clock): ETA must be 0.0, not a crash.
        clock = FakeClock()
        hb = Heartbeat(4, interval_s=None, clock=clock)
        hb.note()
        snap = hb.snapshot()
        assert snap["elapsed_s"] == 0.0
        assert snap["eta_s"] == 0.0
        assert snap["rate_rows_per_s"] is None

    def test_zero_rows_zero_elapsed_is_silent_none(self):
        snap = Heartbeat(4, interval_s=None, clock=FakeClock()).snapshot()
        assert snap["eta_s"] is None
        assert snap["rate_rows_per_s"] is None

    def test_rate_reported_once_measurable(self):
        clock = FakeClock()
        hb = Heartbeat(4, interval_s=None, clock=clock)
        hb.note()
        hb.note()
        clock.now += 4
        assert hb.snapshot()["rate_rows_per_s"] == 0.5

    def test_zero_total_does_not_divide_by_zero(self):
        clock = FakeClock()
        hb = Heartbeat(0, interval_s=None, clock=clock)
        payload = hb.snapshot()
        assert hb._format(payload)  # percent math guards total == 0

    def test_cache_and_journal_fields(self, tmp_path):
        cache = ArtifactCache()
        cache.stats.compile_hits = 3
        cache.stats.compile_misses = 1
        journal = RunJournal(tmp_path)
        journal.record_heartbeat({"label": "x", "done": 0, "total": 1})
        clock = FakeClock()
        hb = Heartbeat(4, journal=journal, cache=cache, clock=clock)
        snap = hb.snapshot()
        assert snap["cache_hit_rate"] == 0.75
        assert "journal_lag_s" in snap


class TestJournalIntegration:
    def test_heartbeats_survive_reload(self, tmp_path):
        journal = RunJournal(tmp_path)
        hb = Heartbeat(3, interval_s=0, journal=journal, clock=FakeClock())
        hb.note("row-1")
        hb.note("row-2")
        assert len(journal.heartbeats) == 2

        reloaded = RunJournal(tmp_path)
        assert len(reloaded.heartbeats) == 2
        assert reloaded.heartbeats[0]["status"] == "heartbeat"
        assert reloaded.heartbeats[0]["done"] == 1

    def test_heartbeats_never_satisfy_resume(self, tmp_path):
        """A heartbeat record must not look like a completed row."""
        journal = RunJournal(tmp_path)
        Heartbeat(1, interval_s=0, journal=journal, clock=FakeClock()).note()
        reloaded = RunJournal(tmp_path)
        assert reloaded.completed("table2:compress", "any-fingerprint") is None

    def test_parallel_sweep_journals_heartbeats(self, tmp_path):
        from repro.experiments.harness import EvaluationOptions
        from repro.experiments.table2 import run_table2

        journal = RunJournal(tmp_path)
        result = run_table2(
            ["ora"],
            EvaluationOptions(trace_length=800, jobs=2, heartbeat_interval=0),
            journal,
        )
        assert len(result.rows) == 1
        assert journal.heartbeats
        last = journal.heartbeats[-1]
        assert last["done"] == last["total"] == 1

    def test_serial_sweep_stays_heartbeat_free(self, tmp_path):
        from repro.experiments.harness import EvaluationOptions
        from repro.experiments.table2 import run_table2

        journal = RunJournal(tmp_path)
        run_table2(
            ["ora"],
            EvaluationOptions(trace_length=800, heartbeat_interval=0),
            journal,
        )
        assert journal.heartbeats == []


class TestSpanFields:
    def test_spans_emitted_reported_and_formatted(self, tmp_path):
        from repro.obs.spans import SpanWriter, part_task_spans

        with SpanWriter(tmp_path) as writer:
            writer.write_all(
                part_task_spans(
                    "t" * 16, "ora", "single",
                    compile_units=1, trace_units=2, sim_units=3,
                )
            )
            hb = Heartbeat(4, spans=writer, clock=FakeClock())
            hb.done = 1
            snap = hb.snapshot()
            assert snap["spans_emitted"] == 4
            assert "4 spans" in hb._format(snap)

    def test_spanless_heartbeat_omits_the_field(self):
        snap = Heartbeat(4, clock=FakeClock()).snapshot()
        assert "spans_emitted" not in snap

    def test_journaled_heartbeats_carry_span_counts(self, tmp_path):
        from repro.experiments.harness import EvaluationOptions
        from repro.experiments.table2 import run_table2
        from repro.obs.spans import SpanWriter

        journal = RunJournal(tmp_path)
        writer = SpanWriter(tmp_path)
        run_table2(
            ["ora"],
            EvaluationOptions(
                trace_length=800, jobs=2, heartbeat_interval=0, spans=writer,
            ),
            journal,
        )
        writer.close()
        assert journal.heartbeats
        last = journal.heartbeats[-1]
        assert last["spans_emitted"] >= 4

    def test_eta_is_monotone_while_progress_stalls(self):
        clock = FakeClock()
        hb = Heartbeat(10, clock=clock)
        clock.now += 10.0
        hb.done = 5
        first = hb.snapshot()["eta_s"]
        clock.now += 20.0  # no new rows: rate drops, ETA must not shrink
        second = hb.snapshot()["eta_s"]
        assert second >= first
