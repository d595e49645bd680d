"""Graceful sweep interruption: no orphans, journal intact, exit 130."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import SweepInterrupted
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.robustness.journal import RunJournal

SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestSweepInterrupted:
    def test_exit_code_is_130(self):
        assert SweepInterrupted("stopped").exit_code == 130

    def test_mid_sweep_interrupt_converts_and_preserves_rows(self, tmp_path):
        # A KeyboardInterrupt surfacing anywhere inside the fan-out loop
        # (here: from the journal append of the first finished row) must
        # shut the pool down and come back typed, with that row delivered.
        delivered = []

        class CtrlCJournal(RunJournal):
            def record_completed(self, key, *args, **kwargs):
                super().record_completed(key, *args, **kwargs)
                delivered.append(key)
                raise KeyboardInterrupt("simulated Ctrl-C")

        with CtrlCJournal(tmp_path / "run") as journal:
            with pytest.raises(SweepInterrupted) as info:
                run_table2(
                    ["compress", "ora", "tomcatv"],
                    EvaluationOptions(trace_length=400, jobs=2),
                    journal=journal,
                )
        assert delivered  # at least one row landed before the interrupt
        assert info.value.context["cause"] == "KeyboardInterrupt"
        assert info.value.exit_code == 130


DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.cli import main
main(["table2", "--trace-length", "1200",
      "--benchmarks", "compress", "ora", "tomcatv", "su2cor",
      "--jobs", "2", "--resume", {run_dir!r}])
"""


def children_of(pid):
    try:
        path = f"/proc/{pid}/task/{pid}/children"
        return [int(p) for p in open(path).read().split()]
    except OSError:  # pragma: no cover - non-Linux
        return []


def alive(pid):
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover
        return True


@pytest.mark.skipif(
    not os.path.exists("/proc"), reason="needs /proc for orphan detection"
)
class TestSigtermSweep:
    def test_sigterm_exits_130_no_orphans_journal_resumable(self, tmp_path):
        run_dir = tmp_path / "run"
        driver = DRIVER.format(src=SRC, run_dir=str(run_dir))
        proc = subprocess.Popen(
            [sys.executable, "-c", driver],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_path = run_dir / "journal.jsonl"
        workers = []
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            workers = children_of(proc.pid) or workers
            if journal_path.exists() and journal_path.stat().st_size > 0:
                proc.send_signal(signal.SIGTERM)
                break
            time.sleep(0.01)
        returncode = proc.wait(timeout=60)

        if returncode == 0:
            pytest.skip("sweep finished before SIGTERM landed")
        # Distinct, resumable exit code — not a raw signal death (-15).
        assert returncode == 130
        # The pool's workers died with the sweep: no orphans.
        time.sleep(0.2)
        assert not [pid for pid in workers if alive(pid)]
        # The journal survived flushed and well-formed (every line parses:
        # fsync-per-row means SIGTERM cannot tear the file mid-line).
        lines = journal_path.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

        # And the run completes bit-identically from where it left off.
        reference = run_table2(
            ["compress", "ora", "tomcatv", "su2cor"],
            EvaluationOptions(trace_length=1200),
        )
        with RunJournal(run_dir) as journal:
            resumed = run_table2(
                ["compress", "ora", "tomcatv", "su2cor"],
                EvaluationOptions(trace_length=1200),
                journal=journal,
            )
        assert [
            (r.benchmark, r.pct_none, r.pct_local) for r in resumed.rows
        ] == [(r.benchmark, r.pct_none, r.pct_local) for r in reference.rows]
