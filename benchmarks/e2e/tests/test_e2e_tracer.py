"""The tracer's arithmetic, its missing-name guard, and that wrapping is inert."""

import json

import pytest

import layers
import tracer as tracing
from tracer import Target, Tracer, TracerError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("outer"):
        clock.now = 1.0
        with t.span("a", part="single"):
            clock.now = 3.0
            with t.span("b"):
                clock.now = 3.5
            clock.now = 4.0
        with t.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    rows = t.by_name()
    assert rows["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 2.0}
    assert rows["a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.5}
    assert rows["b"] == {"calls": 2, "total_s": 2.5, "self_s": 2.5}
    # Context flows to descendants only.
    assert t.self_seconds(["b"], part="single") == 0.5
    # Self times partition the root span exactly.
    assert sum(s.self_s for s in t.spans) == 10.0


def test_recursive_name_counts_outermost_total_once():
    clock = FakeClock()
    t = Tracer(clock)
    with t.span("f"):
        clock.now = 1.0
        with t.span("f"):
            clock.now = 3.0
        clock.now = 4.0
    assert t.by_name()["f"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}


def test_missing_name_is_an_error_not_a_zero():
    import repro.compiler.pipeline as pipeline

    original = pipeline.optimize_program
    for target, missing in (
        (Target("repro.compiler.pipeline", "no_such_step", "compiler.x"), "no_such_step"),
        (Target("repro.core.partition.local", "LocalScheduler.nope", "core.x"),
         "LocalScheduler.nope"),
    ):
        good = Target("repro.compiler.pipeline", "optimize_program", "compiler.y")
        with pytest.raises(TracerError, match=missing):
            with tracing.installed(Tracer(), [good, target]):
                pass
        # Targets patched before the failure are restored.
        assert pipeline.optimize_program is original


def test_install_restores_originals():
    import copy

    import repro.compiler.pipeline as pipeline
    from repro.perf.cache import ArtifactCache

    before = (pipeline.copy, pipeline.build_live_ranges, ArtifactCache.get)
    deepcopy = copy.deepcopy
    with tracing.installed(Tracer(), layers.TARGETS):
        assert pipeline.build_live_ranges is not before[1]
        assert pipeline.copy.deepcopy is not deepcopy
        assert copy.deepcopy is deepcopy  # the shared module is untouched
    assert (pipeline.copy, pipeline.build_live_ranges, ArtifactCache.get) == before


def _compile_and_simulate():
    from repro.experiments.harness import EvaluationOptions, evaluate_workload_part
    from repro.perf.cache import ArtifactCache
    from repro.perf.fingerprint import fingerprint
    from repro.workloads.kernels import KERNELS

    options = EvaluationOptions(trace_length=600, trace_seed=3)
    out = {}
    cache = ArtifactCache()
    for part in ("single", "dual_local"):
        outcome = evaluate_workload_part(KERNELS["daxpy"](), part, options, cache)
        out[part] = (
            outcome.compile_result.machine.format(),
            fingerprint(outcome.sim.stats.as_dict()),
        )
    return out


def test_wrapping_changes_no_output():
    plain = _compile_and_simulate()
    t = Tracer()
    with tracing.installed(t, layers.TARGETS):
        traced = _compile_and_simulate()
    assert traced == plain
    names = t.by_name()
    for name in ("harness.compile_program", "compiler.build_live_ranges",
                 "core.LocalScheduler.partition", "uarch.simulate"):
        assert names[name]["calls"] >= 1, name


def test_chrome_trace_validates():
    from repro.obs.spans import validate_chrome_trace

    t = Tracer()
    with tracing.installed(t, layers.TARGETS):
        _compile_and_simulate()
    document = json.loads(json.dumps(t.chrome_trace()))
    validate_chrome_trace(document)
    assert {e["name"] for e in document["traceEvents"]} >= {"uarch.simulate"}
