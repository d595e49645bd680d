"""Run journal + --resume: interrupted sweeps finish bit-identically.

The acceptance bar for the orchestration layer: a Table 2 sweep killed
mid-run and restarted with the same run directory must produce a final
table bit-identical to an uninterrupted sweep — serial and under
``--jobs 2`` — without recomputing the rows that already landed in the
journal.
"""

import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import _row_fingerprint, run_table2
from repro.robustness.journal import RunJournal, options_fingerprint
from repro.workloads.spec92 import SPEC92, build_compress

BENCHMARKS = ["compress", "ora", "tomcatv"]
TRACE_LENGTH = 600


def options(jobs=1):
    return EvaluationOptions(trace_length=TRACE_LENGTH, jobs=jobs)


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


class TestResumeBitIdentity:
    def test_partial_then_resume_serial(self, tmp_path, reference):
        run_dir = tmp_path / "run"
        # "Interrupted" run: only the first benchmark lands in the journal.
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS[:1], options(), journal=journal)
        # Resume over the full set: the journaled row is reused verbatim.
        with RunJournal(run_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference

    def test_partial_then_resume_jobs2(self, tmp_path, reference):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS[:2], options(jobs=2), journal=journal)
            # A --jobs row journals its parts' in-task seconds, as a
            # serial row does.
            rows = [e for e in journal.entries() if e.key.startswith("table2:")]
            assert len(rows) == 2
            assert all(e.elapsed_s > 0 for e in rows)
        with RunJournal(run_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(jobs=2), journal=journal)
        assert rows_as_tuples(resumed) == reference

    def test_serial_journal_matches_parallel_journal(self, tmp_path, reference):
        # A journal written serially resumes a --jobs run and vice versa:
        # the journaled artifact is the evaluation itself, not a
        # path-dependent encoding of it.
        run_dir = tmp_path / "run"
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS, options(jobs=2), journal=journal)
        with RunJournal(run_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference

    def test_completed_rows_are_not_recomputed(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS, options(), journal=journal)

        def explode(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("journaled row was recomputed")

        monkeypatch.setattr(
            "repro.experiments.harness.evaluate_workload_part", explode
        )
        with RunJournal(run_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert [r.benchmark for r in resumed.rows] == BENCHMARKS

    def test_changed_options_invalidate_journal(self, tmp_path):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS[:1], options(), journal=journal)
        changed = EvaluationOptions(trace_length=TRACE_LENGTH + 100)
        assert options_fingerprint(changed) != options_fingerprint(options())
        with RunJournal(run_dir) as journal:
            key = "table2:compress"
            assert journal.completed(key, _row_fingerprint("compress", options()))
            # stale row must not be reused
            assert journal.completed(key, _row_fingerprint("compress", changed)) is None

    def test_rebuilt_workload_invalidates_journal(self, tmp_path, monkeypatch):
        # Same name, same options, a different draw of the generator: the
        # journaled row describes another program and must not be served.
        run_dir = tmp_path / "run"
        opts = EvaluationOptions(trace_length=1000)
        with RunJournal(run_dir) as journal:
            journaled = run_table2(["compress"], opts, journal=journal)
            stale = journal.entry("table2:compress").fingerprint
        monkeypatch.setitem(SPEC92, "compress", functools.partial(build_compress, seed=12))
        fresh = run_table2(["compress"], opts)
        assert rows_as_tuples(fresh) != rows_as_tuples(journaled)
        with RunJournal(run_dir) as journal:
            resumed = run_table2(["compress"], opts, journal=journal)
            # The recomputed row is journaled under the new fingerprint.
            assert journal.entry("table2:compress").fingerprint != stale
        assert rows_as_tuples(resumed) == rows_as_tuples(fresh)

    def test_jobs_do_not_change_fingerprint(self):
        # Worker count is execution shape, not inputs: a serial journal
        # must satisfy a --jobs resume.
        assert options_fingerprint(options(jobs=1)) == options_fingerprint(
            options(jobs=4)
        )

    def test_torn_final_line_tolerated(self, tmp_path, reference):
        run_dir = tmp_path / "run"
        with RunJournal(run_dir) as journal:
            run_table2(BENCHMARKS[:2], options(), journal=journal)
        with open(run_dir / "journal.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"key": "table2:ora", "status": "comp')  # torn write
        journal = RunJournal(run_dir)
        assert journal.skipped_lines == 1
        with journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference


KILL_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.robustness.journal import RunJournal

with RunJournal({run_dir!r}) as journal:
    run_table2({benchmarks!r},
               EvaluationOptions(trace_length={trace_length}),
               journal=journal)
"""


class TestKillAndResume:
    def test_sigkill_mid_sweep_then_resume(self, tmp_path, reference):
        """The real thing: SIGKILL the sweep process, resume, compare."""
        run_dir = tmp_path / "run"
        src = str(Path(__file__).resolve().parents[2] / "src")
        driver = KILL_DRIVER.format(
            src=src,
            run_dir=str(run_dir),
            benchmarks=BENCHMARKS,
            trace_length=TRACE_LENGTH,
        )
        proc = subprocess.Popen([sys.executable, "-c", driver])
        journal_path = run_dir / "journal.jsonl"
        # Wait for the first row to be journaled, then kill without mercy.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it; resume still works
            if journal_path.exists() and journal_path.stat().st_size > 0:
                os.kill(proc.pid, signal.SIGKILL)
                break
            time.sleep(0.01)
        proc.wait(timeout=60)

        survivors = [
            json.loads(line)
            for line in journal_path.read_text().splitlines()
            if line.strip()
        ]
        assert survivors, "at least one row should have been journaled"

        with RunJournal(run_dir) as journal:
            resumed = run_table2(BENCHMARKS, options(), journal=journal)
        assert rows_as_tuples(resumed) == reference
