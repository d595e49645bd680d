"""The span identity contract (ISSUE 10 acceptance).

Spans carry content-derived IDs and virtual work-unit times, so a Table
2 sweep must leave the *same* canonical deterministic span set no matter
how it was orchestrated: serially, across ``--jobs`` worker processes,
resumed after a kill mid-run, or run as two ``--shard`` journals in one
run directory and folded back with ``repro journal merge``.  Each test here compares canonical merged
``spans.jsonl`` files byte for byte against one serial reference.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.obs.spans import SpanWriter, load_run_spans, split_spans
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.robustness.journal import RunJournal, merge_journals

TL = 600
BENCHMARKS = ["compress", "ora"]


def _options(**overrides):
    return EvaluationOptions(trace_length=TL, **overrides)


def _run(run_dir, shard=None, **overrides):
    """One journaled, spanned table2 sweep into ``run_dir``."""
    writer = SpanWriter(run_dir, shard=shard)
    journal = RunJournal(run_dir, shard=shard)
    try:
        return run_table2(
            BENCHMARKS, _options(spans=writer, **overrides), journal=journal
        )
    finally:
        journal.close()
        writer.close()


def _merged_spans(run_dir, out_dir):
    merge_journals([run_dir], out_dir)
    return (Path(out_dir) / "spans.jsonl").read_bytes()


@pytest.fixture(scope="module")
def serial_reference(tmp_path_factory):
    """Canonical merged span bytes of a plain serial run."""
    run_dir = tmp_path_factory.mktemp("serial")
    _run(run_dir)
    return _merged_spans(run_dir, run_dir / "merged")


class TestReferenceShape:
    def test_serial_span_population(self, serial_reference):
        spans = [
            json.loads(line) for line in serial_reference.decode().splitlines()
        ]
        kinds = {}
        for span in spans:
            kinds[span["kind"]] = kinds.get(span["kind"], 0) + 1
        # 2 benchmarks x 3 parts x (task + 3 stages) + the sweep root.
        assert kinds == {
            "sweep": 1, "task": 6, "compile": 6, "tracegen": 6, "simulate": 6,
        }
        assert len({span["trace_id"] for span in spans}) == 1
        assert len({span["span_id"] for span in spans}) == len(spans)


class TestJobsIdentity:
    def test_pool_sweep_is_bit_identical(self, tmp_path, serial_reference):
        _run(tmp_path, jobs=2)
        assert _merged_spans(tmp_path, tmp_path / "merged") == serial_reference


#: Fails ora's first part for good (a permanent TraceError).
ORA_SINGLE_FAULT = FaultPlan(
    specs=(
        FaultSpec(
            kind="truncate_trace", benchmark="ora", part="single", at_cycle=50
        ),
    )
)


class TestFailedRowIdentity:
    @pytest.fixture(scope="class")
    def serial_failed(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("serial-failed")
        _run(run_dir, fault_plan=ORA_SINGLE_FAULT)
        return _failed_row(run_dir)

    def test_jobs_degraded_row_matches_serial(self, tmp_path, serial_failed):
        """A row is decided by its first failed part: its attempts count
        the parts up to that one, however many later parts a path ran."""
        result = _run(tmp_path, jobs=2, fault_plan=ORA_SINGLE_FAULT)
        assert [f.benchmark for f in result.failures] == ["ora"]
        attempts, spans = _failed_row(tmp_path)
        assert attempts == serial_failed[0]
        assert spans == serial_failed[1]

    def test_serial_failed_task_span_counts_one_attempt(self, serial_failed):
        attempts, spans = serial_failed
        failed = [
            span for span in map(json.loads, spans.decode().splitlines())
            if span["attrs"].get("failed")
        ]
        assert attempts == 1
        assert [(s["name"], s["attrs"]["attempts"]) for s in failed] == [("ora", 1)]


def _failed_row(run_dir):
    """``(journaled attempts of table2:ora, canonical merged span bytes)``."""
    with RunJournal(run_dir) as journal:
        entry = journal.entry("table2:ora")
    assert entry is not None and entry.status == "failed"
    return entry.attempts, _merged_spans(run_dir, run_dir / "merged")


class TestKillResumeIdentity:
    def test_truncated_run_resumes_bit_identical(self, tmp_path, serial_reference):
        """A sweep killed mid-append (torn journal line, torn span line)
        re-emits reused rows' spans on resume; the merge folds the
        duplicates back to the serial reference."""
        _run(tmp_path)
        journal_file = tmp_path / "journal.jsonl"
        lines = journal_file.read_text().splitlines(keepends=True)
        # SIGKILL simulation: lose the last complete record and leave a
        # torn half-line behind, in the journal and the span sink both.
        journal_file.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        with open(tmp_path / "spans.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"trace_id": "half-a-record')
        resumed = _run(tmp_path)
        assert resumed.failures == []
        assert _merged_spans(tmp_path, tmp_path / "merged") == serial_reference

    def test_resume_of_a_complete_run_changes_nothing(
        self, tmp_path, serial_reference
    ):
        _run(tmp_path)
        _run(tmp_path)  # all rows reused from the journal
        assert _merged_spans(tmp_path, tmp_path / "merged") == serial_reference


class TestShardIdentity:
    def test_two_shard_sweep_merges_bit_identical(self, tmp_path, serial_reference):
        """Two ``--jobs 2`` sweeps journal into one run directory under
        shards ``a`` and ``b``, as two hosts would; ``merge_journals``
        folds both span shards into the serial bytes."""
        for shard in ("a", "b"):
            result = _run(tmp_path, shard=shard, jobs=2, task_timeout=60.0)
            assert result.failures == []
        shard_files = sorted(p.name for p in tmp_path.glob("spans-*.jsonl"))
        assert shard_files == ["spans-a.jsonl", "spans-b.jsonl"]
        merged = tmp_path / "merged"
        assert _merged_spans(tmp_path, merged) == serial_reference
        # Wall-clock orchestration spans (dispatch) are real but land
        # only in the non-canonical sidecar.
        _, wall = split_spans(load_run_spans(merged))
        assert wall and all(not s.deterministic for s in wall)
        sidecar = [
            json.loads(line)
            for line in (merged / "spans-wall.jsonl").read_text().splitlines()
        ]
        assert len(sidecar) == len(wall)
