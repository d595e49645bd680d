"""Sharded journals + ``repro journal merge``: split, merge, resume.

The acceptance bar: a Table 2 sweep deliberately split across two shard
journals, merged with ``merge_journals``, must resume from the merged
directory to a table bit-identical to an unsharded run — without
recomputing a single row.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.robustness.journal import (
    JournalEntry,
    RunJournal,
    merge_journals,
    parse_journal_line,
    shard_journal_paths,
)

BENCHMARKS = ["compress", "ora", "tomcatv"]
TRACE_LENGTH = 600


def options():
    return EvaluationOptions(trace_length=TRACE_LENGTH)


def rows_as_tuples(result):
    return [
        (
            r.benchmark,
            r.pct_none,
            r.pct_local,
            r.evaluation.single.cycles,
            r.evaluation.dual_none.cycles,
            r.evaluation.dual_local.cycles,
        )
        for r in result.rows
    ]


@pytest.fixture(scope="module")
def reference():
    return rows_as_tuples(run_table2(BENCHMARKS, options()))


def _split_sweep(run_dir):
    """One sweep deliberately split across two shard journals, as if two
    executors/hosts had divided the benchmark list."""
    with RunJournal(run_dir, shard="hostA") as journal:
        run_table2(BENCHMARKS[:1], options(), journal=journal)
    with RunJournal(run_dir, shard="hostB") as journal:
        run_table2(BENCHMARKS[1:], options(), journal=journal)


class TestAcceptanceSplitMergeResume:
    def test_merged_shards_resume_bit_identical(
        self, tmp_path, reference, monkeypatch
    ):
        """ISSUE 6 acceptance: two split shards merge and resume to the
        same fingerprint as an unsharded run."""
        shard_dir = tmp_path / "sharded"
        merged_dir = tmp_path / "merged"
        _split_sweep(shard_dir)
        report = merge_journals([shard_dir], merged_dir)
        assert report.rows_merged == len(BENCHMARKS)
        assert report.conflicts == 0

        # The resume must reuse every merged row, never recompute.
        def explode(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("merged row was recomputed")

        monkeypatch.setattr(
            "repro.experiments.harness.evaluate_workload_part", explode
        )
        with RunJournal(merged_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference

    def test_explicit_shard_files_merge_equally(self, tmp_path, reference):
        shard_dir = tmp_path / "sharded"
        merged_dir = tmp_path / "merged"
        _split_sweep(shard_dir)
        files = shard_journal_paths(shard_dir)
        assert [p.name for p in files] == [
            "journal-hostA.jsonl",
            "journal-hostB.jsonl",
        ]
        merge_journals(files, merged_dir)
        with RunJournal(merged_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference


class TestTornLines:
    def test_truncated_final_record_in_one_shard(self, tmp_path, reference):
        """Satellite: a shard whose writer was killed mid-append merges
        cleanly — the torn row is dropped and recomputed on resume."""
        shard_dir = tmp_path / "sharded"
        merged_dir = tmp_path / "merged"
        _split_sweep(shard_dir)
        hostb = shard_dir / "journal-hostB.jsonl"
        # Truncate the final record mid-line: a torn write.
        text = hostb.read_text()
        lines = text.splitlines(keepends=True)
        hostb.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        report = merge_journals([shard_dir], merged_dir)
        assert report.torn_lines == 1
        assert report.rows_merged == len(BENCHMARKS) - 1
        with RunJournal(merged_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference

    def test_garbage_line_between_shards(self, tmp_path):
        shard_dir = tmp_path / "sharded"
        _split_sweep(shard_dir)
        with open(shard_dir / "journal-hostA.jsonl", "a", encoding="utf-8") as fh:
            fh.write("}{ not json at all\n")
        report = merge_journals([shard_dir], tmp_path / "merged")
        assert report.torn_lines == 1
        assert report.rows_merged == len(BENCHMARKS)

    def test_parse_journal_line_kinds(self):
        assert parse_journal_line("   \n") == ("blank", None)
        assert parse_journal_line('{"status": "comp')[0] == "torn"
        assert parse_journal_line('{"status": "heartbeat"}')[0] == "heartbeat"
        assert parse_journal_line(
            '{"status": "event", "kind": "executor_degradation"}'
        )[0] == "event"
        kind, entry = parse_journal_line(
            '{"key": "k", "status": "completed", "fingerprint": "f"}'
        )
        assert kind == "row" and isinstance(entry, JournalEntry)


def _write_row(run_dir, shard, key, fingerprint, status="completed"):
    with RunJournal(run_dir, shard=shard) as journal:
        if status == "completed":
            journal.record_completed(key, fingerprint, payload={"v": shard})
        else:
            journal.record_failed(key, fingerprint, error={"type": "X"})


class TestMergeSemantics:
    def test_duplicates_dropped(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_row(run_dir, "b", "row:1", "fp1")
        report = merge_journals([run_dir], tmp_path / "merged")
        assert report.rows_merged == 1
        assert report.duplicates_dropped == 1
        assert report.conflicts == 0

    def test_completed_beats_failed(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1", status="failed")
        _write_row(run_dir, "b", "row:1", "fp1", status="completed")
        merged_dir = tmp_path / "merged"
        merge_journals([run_dir], merged_dir)
        merged = RunJournal(merged_dir)
        assert merged.entry("row:1").status == "completed"

    def test_conflicting_fingerprints_latest_wins(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp-old")
        _write_row(run_dir, "b", "row:1", "fp-new")
        merged_dir = tmp_path / "merged"
        report = merge_journals([run_dir], merged_dir)
        assert report.conflicts == 1
        assert RunJournal(merged_dir).entry("row:1").fingerprint == "fp-new"

    def test_heartbeats_dropped_events_kept(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir, shard="a") as journal:
            journal.record_heartbeat({"done": 1, "total": 3})
            journal.record_event("executor_degradation", {"reason": "x"})
            journal.record_completed("row:1", "fp1")
        merged_dir = tmp_path / "merged"
        report = merge_journals([run_dir], merged_dir)
        assert report.heartbeats_dropped == 1
        assert report.events_kept == 1
        merged = RunJournal(merged_dir)
        assert merged.heartbeats == []
        assert [e["kind"] for e in merged.events] == ["executor_degradation"]

    def test_artifacts_copied_for_winning_rows(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir, shard="a") as journal:
            journal.record_completed("row:1", "fp1", artifact_value={"big": 1})
        merged_dir = tmp_path / "merged"
        report = merge_journals([run_dir], merged_dir)
        assert report.artifacts_copied == 1
        merged = RunJournal(merged_dir)
        assert merged.load_artifact(merged.entry("row:1")) == {"big": 1}

    def test_missing_artifact_tolerated(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir, shard="a") as journal:
            journal.record_completed("row:1", "fp1", artifact_value={"big": 1})
        (run_dir / "artifacts" / "row_1.pkl").unlink()
        report = merge_journals([run_dir], tmp_path / "merged")
        assert report.artifacts_missing == 1
        assert report.rows_merged == 1


class TestMergeValidation:
    def test_existing_output_journal_rejected(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        out = tmp_path / "merged"
        with RunJournal(out) as journal:
            journal.record_completed("other", "fp")
        with pytest.raises(ConfigError, match="already contains"):
            merge_journals([run_dir], out)

    def test_missing_shard_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            merge_journals([tmp_path / "nope"], tmp_path / "merged")

    def test_empty_run_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ConfigError, match="no journal files"):
            merge_journals([empty], tmp_path / "merged")

    def test_no_shards_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one shard"):
            merge_journals([], tmp_path / "merged")


class TestDryRun:
    def test_dry_run_accounts_without_writing(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_row(run_dir, "b", "row:1", "fp1")  # duplicate across shards
        _write_row(run_dir, "b", "row:2", "fp2")
        out = tmp_path / "merged"
        report = merge_journals([run_dir], out, dry_run=True)
        assert report.rows_merged == 2
        assert report.duplicates_dropped == 1
        assert not out.exists()  # nothing written anywhere

    def test_dry_run_then_real_merge_agree(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_row(run_dir, "b", "row:2", "fp2")
        out = tmp_path / "merged"
        preview = merge_journals([run_dir], out, dry_run=True)
        actual = merge_journals([run_dir], out)
        assert preview.rows_merged == actual.rows_merged
        assert preview.duplicates_dropped == actual.duplicates_dropped
        assert preview.artifacts_missing == actual.artifacts_missing

    def test_dry_run_flag_on_cli(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        merged_dir = tmp_path / "merged"
        main(
            [
                "journal", "merge", str(run_dir),
                "--output", str(merged_dir), "--dry-run",
            ]
        )
        out = capsys.readouterr().out
        assert "dry run: nothing written" in out
        assert not merged_dir.exists()


class TestCLI:
    def test_journal_merge_subcommand(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_row(run_dir, "b", "row:2", "fp2")
        merged_dir = tmp_path / "merged"
        main(["journal", "merge", str(run_dir), "--output", str(merged_dir)])
        out = capsys.readouterr().out
        assert "merged" in out and "rows:" in out
        merged = RunJournal(merged_dir)
        assert {e.key for e in merged.entries()} == {"row:1", "row:2"}

    def test_shard_flag_routes_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        main(
            [
                "table2",
                "--benchmarks",
                "ora",
                "--trace-length",
                "1000",
                "--resume",
                str(run_dir),
                "--shard",
                "host1",
            ]
        )
        assert (run_dir / "journal-host1.jsonl").exists()
        assert not (run_dir / "journal.jsonl").exists()
        rows = [
            parse_journal_line(line)
            for line in (run_dir / "journal-host1.jsonl").read_text().splitlines()
        ]
        assert any(kind == "row" for kind, _ in rows)

    def test_shard_without_resume_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(
                [
                    "table2",
                    "--benchmarks",
                    "ora",
                    "--trace-length",
                    "1000",
                    "--shard",
                    "host1",
                ]
            )
        assert info.value.code == ConfigError.exit_code
        assert "requires a run directory" in capsys.readouterr().err


class TestShardJournalFormat:
    def test_shard_rows_are_plain_journal_records(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "host.1", "row:1", "fp1")
        path = run_dir / "journal-host.1.jsonl"
        assert path.exists()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["status"] == "completed"
        assert record["schema"] == 1


def _write_spans(run_dir, shard, benchmark, *, wall=False):
    from repro.obs.spans import Span, SpanWriter, part_task_spans

    trace_id = "t" * 16
    with SpanWriter(run_dir, shard=shard) as writer:
        writer.write_all(
            part_task_spans(
                trace_id, benchmark, "single",
                compile_units=1, trace_units=2, sim_units=3,
            )
        )
        if wall:
            writer.write(
                Span(
                    trace_id=trace_id, span_id=f"wall-{shard}".ljust(16, "0"),
                    parent_id=None, kind="dispatch",
                    name=f"{benchmark}:single", start_u=0, end_u=10, attrs={},
                )
            )


class TestSpanMerge:
    def test_overlapping_shard_spans_dedupe(self, tmp_path):
        from repro.obs.spans import read_spans

        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        # Driver and worker both journaled compress's spans; ora's only
        # landed on one shard.  Wall spans stay out of the canonical set.
        _write_spans(run_dir, "a", "compress", wall=True)
        _write_spans(run_dir, "b", "compress")
        _write_spans(run_dir, "b", "ora")
        merged_dir = tmp_path / "merged"
        report = merge_journals([run_dir], merged_dir)
        assert report.spans_merged == 8  # 2 tasks x 4 spans, duplicates folded
        assert report.wall_spans_kept == 1
        assert "spans:" in report.format()
        det = read_spans(merged_dir / "spans.jsonl")
        assert len(det) == 8
        assert len({s.span_id for s in det}) == 8
        assert all(s.deterministic for s in det)
        wall = read_spans(merged_dir / "spans-wall.jsonl")
        assert [s.kind for s in wall] == ["dispatch"]

    def test_merged_spans_are_canonically_ordered(self, tmp_path):
        from repro.obs.spans import canonical_lines, read_spans

        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_spans(run_dir, "b", "ora")
        _write_spans(run_dir, "a", "compress")
        merged_dir = tmp_path / "merged"
        merge_journals([run_dir], merged_dir)
        spans = read_spans(merged_dir / "spans.jsonl")
        want = canonical_lines(spans)
        got = [
            line for line in
            (merged_dir / "spans.jsonl").read_text().splitlines() if line
        ]
        assert got == want

    def test_dry_run_counts_spans_without_writing(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        _write_spans(run_dir, "a", "compress", wall=True)
        out = tmp_path / "merged"
        preview = merge_journals([run_dir], out, dry_run=True)
        assert preview.spans_merged == 4
        assert preview.wall_spans_kept == 1
        assert not out.exists()

    def test_spanless_merge_reports_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        _write_row(run_dir, "a", "row:1", "fp1")
        merged_dir = tmp_path / "merged"
        report = merge_journals([run_dir], merged_dir)
        assert report.spans_merged == 0 and report.wall_spans_kept == 0
        assert "spans:" not in report.format()
        assert not (merged_dir / "spans.jsonl").exists()
