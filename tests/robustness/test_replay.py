"""Replay bundles: serialize a failure, re-run it, get the same error."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.harness import EvaluationOptions
from repro.experiments.table2 import run_table2
from repro.robustness.faultinject import FaultPlan, FaultSpec
from repro.robustness.replay import (
    BUNDLE_SCHEMA,
    ReplayBundle,
    capture_bundle,
    replay,
    replay_file,
)

TRACE_LENGTH = 600


def failing_options():
    """Options whose dual_none part deterministically dies to a
    persistent trace corruption."""
    return EvaluationOptions(
        trace_length=TRACE_LENGTH,
        fault_plan=FaultPlan(
            specs=(
                FaultSpec(
                    kind="corrupt_operand",
                    benchmark="compress",
                    part="dual_none",
                    at_cycle=50,
                ),
            )
        ),
    )


@pytest.fixture(scope="module")
def failure():
    [failure] = run_table2(["compress"], failing_options()).failures
    return failure


class TestBundleRoundTrip:
    def test_capture_save_load_replay(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
            error_context=failure.context,
            part=failure.context.get("part"),
        )
        path = bundle.save(tmp_path / "bundle.json")
        result = replay_file(path)
        assert result.reproduced
        assert result.actual_type == failure.error_type
        assert result.actual_message == failure.message

    def test_bundle_file_is_readable_json(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
            part=failure.context.get("part"),
        )
        path = bundle.save(tmp_path / "bundle.json")
        data = json.loads(path.read_text())
        assert data["schema"] == BUNDLE_SCHEMA
        assert data["benchmark"] == "compress"
        # The fault plan rides along human-readably, not only pickled.
        kinds = [s["kind"] for s in data["fault_plan"]["specs"]]
        assert kinds == ["corrupt_operand"]

    def test_loaded_options_are_sealed_serial(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
        )
        restored = ReplayBundle.load(bundle.save(tmp_path / "b.json")).options()
        assert restored.jobs == 1
        assert restored.cache is None
        assert restored.retry is None

    def test_mismatch_is_not_reproduced(self, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type="WatchdogTimeout",  # wrong on purpose
            error_message="something else entirely",
            part=failure.context.get("part"),
        )
        result = replay(bundle)
        assert not result.reproduced
        assert result.actual_type == failure.error_type

    def test_healthy_run_does_not_reproduce(self):
        bundle = capture_bundle(
            "compress",
            EvaluationOptions(trace_length=TRACE_LENGTH),  # no faults
            error_type="SimulationError",
            error_message="phantom",
            part="single",
        )
        result = replay(bundle)
        assert not result.reproduced
        assert result.actual_type is None
        assert "completed without error" in result.format()


class TestBundleValidation:
    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError, match="not valid JSON"):
            ReplayBundle.load(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ConfigError, match="not a replay bundle"):
            ReplayBundle.load(path)

    def test_wrong_schema_rejected(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
        )
        path = bundle.save(tmp_path / "b.json")
        data = json.loads(path.read_text())
        data["schema"] = BUNDLE_SCHEMA + 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="schema"):
            ReplayBundle.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            ReplayBundle.load(tmp_path / "nope.json")

    def test_unknown_benchmark_rejected(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
        )
        path = bundle.save(tmp_path / "b.json")
        data = json.loads(path.read_text())
        data["benchmark"] = "not-a-benchmark"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown benchmark"):
            replay_file(path)

    def test_corrupt_pickle_rejected(self, tmp_path, failure):
        bundle = capture_bundle(
            "compress",
            failing_options(),
            error_type=failure.error_type,
            error_message=failure.message,
        )
        path = bundle.save(tmp_path / "b.json")
        data = json.loads(path.read_text())
        data["options_pickle"] = "AAAA"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unreadable"):
            ReplayBundle.load(path).options()
