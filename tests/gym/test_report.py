"""Tests for trajectory/frontier reports: schema, determinism, atomicity."""

import json
import os

import pytest

from repro.errors import ConfigError
from repro.gym.fitness import Baseline, GymSettings, TrialResult
from repro.gym.report import (
    TRAJECTORY_SCHEMA,
    dump_records,
    format_frontier,
    frontier_record,
    header_record,
    load_trajectory,
    trial_record,
    validate_record,
    write_frontier,
    write_trajectory,
)
from repro.gym.space import ClusterSpec, DesignPoint

SETTINGS = GymSettings(benchmarks=("compress",), trace_length=600)
BASELINE = Baseline(cycles={"compress": 1000}, cycle_time_ps=700.0)
TRIAL = TrialResult(
    point=DesignPoint(clusters=(ClusterSpec(4, 64, 64),) * 2, buffer_entries=8),
    cycles={"compress": 1100},
    rel_cycles=1.1,
    cycle_time_ps=500.0,
    speedup=1.27,
)


def records():
    return [
        header_record("random", 42, SETTINGS, BASELINE),
        trial_record(0, 0, TRIAL),
        frontier_record([TRIAL]),
    ]


class TestSchema:
    def test_builders_produce_valid_records(self):
        for record in records():
            validate_record(record)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown trajectory record kind"):
            validate_record({"kind": "telemetry", "schema": TRAJECTORY_SCHEMA})
        with pytest.raises(ConfigError, match="unknown"):
            validate_record({"schema": TRAJECTORY_SCHEMA})

    def test_missing_keys_rejected(self):
        record = trial_record(0, 0, TRIAL)
        del record["generation"]
        with pytest.raises(ConfigError, match="missing keys"):
            validate_record(record)

    def test_schema_mismatch_rejected(self):
        record = trial_record(0, 0, TRIAL)
        record["schema"] = TRAJECTORY_SCHEMA + 1
        with pytest.raises(ConfigError, match="schema"):
            validate_record(record)

    def test_trial_payload_keys_checked(self):
        record = frontier_record([TRIAL])
        del record["trials"][0]["speedup"]
        with pytest.raises(ConfigError, match="trial payload"):
            validate_record(record)


class TestDeterminism:
    def test_dump_is_sorted_keys_jsonl(self):
        text = dump_records(records())
        lines = text.splitlines()
        assert len(lines) == 3 and text.endswith("\n")
        for line in lines:
            record = json.loads(line)
            assert line == json.dumps(record, sort_keys=True)

    def test_no_timestamps_or_provenance(self):
        text = dump_records(records()).lower()
        for forbidden in ("time_s", "timestamp", "hostname", "duration", "date"):
            assert forbidden not in text

    def test_dump_is_reproducible(self):
        assert dump_records(records()) == dump_records(records())


class TestFiles:
    def test_trajectory_round_trip(self, tmp_path):
        path = tmp_path / "runs" / "trajectory.jsonl"
        write_trajectory(path, records())
        loaded = load_trajectory(path)
        assert loaded == records()
        assert not list(path.parent.glob("*.tmp"))

    def test_rewrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        write_trajectory(path, records())
        write_trajectory(path, records()[:1])
        assert load_trajectory(path) == records()[:1]

    def test_torn_line_rejected_on_load(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        write_trajectory(path, records())
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "tri')
        with pytest.raises(ConfigError, match="torn"):
            load_trajectory(path)

    def test_frontier_file_is_canonical_json(self, tmp_path):
        path = tmp_path / "frontier.json"
        write_frontier(path, [TRIAL])
        text = path.read_text()
        record = json.loads(text)
        validate_record(record)
        assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"

    def test_frontier_write_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_frontier(tmp_path / "frontier.json", [TRIAL])
        assert synced


class TestFormat:
    def test_table_lists_every_frontier_point(self):
        table = format_frontier([TRIAL], BASELINE)
        assert TRIAL.point.slug in table
        assert "baseline 1x8-way" in table
