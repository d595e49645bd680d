"""Artifact cache: fingerprints, tiers, counters, invalidation, keys."""

import pickle

import pytest

from repro.compiler.pipeline import CompilerOptions
from repro.core.partition.local import LocalScheduler
from repro.core.registers import RegisterAssignment
from repro.experiments.harness import EvaluationOptions, evaluate_workload
from repro.experiments.table2 import run_table2
from repro.perf.cache import ArtifactCache, CacheStats, compile_key, trace_key
from repro.perf.fingerprint import fingerprint
from repro.workloads.spec92 import SPEC92

TL = 1500


class TestFingerprint:
    def test_stable_across_calls(self):
        workload = SPEC92["ora"]()
        assert fingerprint(workload.program) == fingerprint(workload.program)

    def test_equal_rebuilt_programs_fingerprint_equal(self):
        # The builders are deterministic; two fresh builds must collide.
        assert fingerprint(SPEC92["ora"]().program) == fingerprint(
            SPEC92["ora"]().program
        )

    def test_distinct_programs_fingerprint_differently(self):
        assert fingerprint(SPEC92["ora"]().program) != fingerprint(
            SPEC92["compress"]().program
        )

    def test_sets_are_order_insensitive(self):
        assert fingerprint({"a", "b", "c"}) == fingerprint({"c", "a", "b"})

    def test_unsupported_type_is_an_error_not_a_silent_fallback(self):
        with pytest.raises(TypeError):
            fingerprint(object())


class TestMemoryTier:
    def test_hit_miss_counters(self):
        cache = ArtifactCache()
        assert cache.get("compile", "k") is None
        cache.put("compile", "k", "artifact")
        assert cache.get("compile", "k") == "artifact"
        assert cache.stats.compile_misses == 1
        assert cache.stats.compile_hits == 1
        assert cache.stats.disk_hits == 0 and cache.stats.disk_writes == 0

    def test_kinds_counted_separately(self):
        cache = ArtifactCache()
        cache.get("trace", "k")
        cache.put("trace", "k", [1])
        cache.get("trace", "k")
        assert cache.stats.trace_misses == 1 and cache.stats.trace_hits == 1
        assert cache.stats.compile_hits == cache.stats.compile_misses == 0

    def test_empty_cache_is_still_a_real_cache(self):
        # Regression: `cache or default` discarded empty caches (len == 0
        # is falsy), silently resetting the caller's stats accounting.
        cache = ArtifactCache()
        workload = SPEC92["ora"]()
        evaluate_workload(workload, EvaluationOptions(trace_length=TL), cache=cache)
        assert cache.stats.misses > 0


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        first = ArtifactCache(tmp_path)
        first.put("compile", "k", {"x": 1})
        assert first.stats.disk_writes == 1
        second = ArtifactCache(tmp_path)
        assert second.get("compile", "k") == {"x": 1}
        assert second.stats.disk_hits == 1
        assert second.stats.compile_hits == 1

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("trace", "k", [1, 2])
        (victim,) = list(tmp_path.glob("trace-*.pkl"))
        victim.write_bytes(b"not a pickle")
        fresh = ArtifactCache(tmp_path)
        assert fresh.get("trace", "k") is None
        assert fresh.stats.trace_misses == 1

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("compile", "k", "v")
        assert not list(tmp_path.glob("*.tmp"))


class TestInvalidation:
    def test_invalidate_everything(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("compile", "a", 1)
        cache.put("trace", "b", 2)
        dropped = cache.invalidate()
        assert dropped == 2
        assert cache.get("compile", "a") is None
        assert not list(tmp_path.glob("*.pkl"))
        assert cache.stats.invalidations == 1

    def test_invalidate_one_kind(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("compile", "a", 1)
        cache.put("trace", "b", 2)
        cache.invalidate(kind="compile")
        assert cache.get("compile", "a") is None
        assert cache.get("trace", "b") == 2

    def test_invalidate_one_key(self):
        cache = ArtifactCache()
        cache.put("compile", "a", 1)
        cache.put("compile", "b", 2)
        cache.invalidate(kind="compile", key="a")
        assert cache.get("compile", "a") is None
        assert cache.get("compile", "b") == 2

    def test_key_without_kind_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache().invalidate(key="a")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache().invalidate(kind="nope")


class TestKeySensitivity:
    """Anything that can change the artifact must change the key."""

    def _ckey(self, name="ora", partitioner=None, options=None):
        workload = SPEC92[name]()
        return compile_key(
            workload.name,
            workload.program,
            RegisterAssignment.even_odd_dual(),
            partitioner,
            options or CompilerOptions(),
        )

    def test_same_inputs_same_key(self):
        assert self._ckey() == self._ckey()

    def test_program_changes_key(self):
        assert self._ckey("ora") != self._ckey("compress")

    def test_partitioner_changes_key(self):
        assert self._ckey(partitioner=LocalScheduler()) != self._ckey(
            partitioner=LocalScheduler(imbalance_threshold=7)
        )

    def test_assignment_changes_key(self):
        workload = SPEC92["ora"]()
        even_odd = compile_key(
            workload.name, workload.program,
            RegisterAssignment.even_odd_dual(), None, CompilerOptions(),
        )
        low_high = compile_key(
            workload.name, workload.program,
            RegisterAssignment.low_high_dual(), None, CompilerOptions(),
        )
        assert even_odd != low_high

    def test_seed_and_length_change_trace_key(self):
        workload = SPEC92["ora"]()
        base = trace_key("ck", workload.streams, workload.behaviors, 7, 1000)
        assert base == trace_key("ck", workload.streams, workload.behaviors, 7, 1000)
        assert base != trace_key("ck", workload.streams, workload.behaviors, 8, 1000)
        assert base != trace_key("ck", workload.streams, workload.behaviors, 7, 1001)
        assert base != trace_key("other", workload.streams, workload.behaviors, 7, 1000)


class TestParallelSweepCache:
    def test_jobs_sweep_compiles_each_binary_once(self):
        # Binary-affinity dispatch keeps each native pair (single and
        # dual_none) on the worker that compiled and traced it while the
        # queue is long.  Only the last three tasks go out plain FIFO, so
        # two workers split at most two pairs; FIFO dispatch throughout
        # splits most of the six, compress's always.
        stats = {}
        for jobs in (1, 2):
            cache = ArtifactCache()
            run_table2(
                sorted(SPEC92), EvaluationOptions(trace_length=1000, jobs=jobs, cache=cache)
            )
            stats[jobs] = cache.stats
        serial, parallel = stats[1], stats[2]
        assert serial.compile_hits == serial.trace_hits == 6
        assert parallel.hits + parallel.misses == serial.hits + serial.misses
        split = parallel.compile_misses - serial.compile_misses
        assert split == parallel.trace_misses - serial.trace_misses
        assert split <= 2


class TestWarmEvaluation:
    def test_warm_cache_skips_recompilation_and_is_bit_identical(self, tmp_path):
        options = EvaluationOptions(trace_length=TL)
        cold_cache = ArtifactCache(tmp_path)
        cold = evaluate_workload(SPEC92["ora"](), options, cache=cold_cache)
        assert cold_cache.stats.compile_misses == 2  # native + rescheduled
        assert cold_cache.stats.trace_misses == 2

        warm_cache = ArtifactCache(tmp_path)
        warm = evaluate_workload(SPEC92["ora"](), options, cache=warm_cache)
        assert warm_cache.stats.compile_misses == 0
        assert warm_cache.stats.trace_misses == 0
        assert warm_cache.stats.compile_hits == 3  # one per part
        assert (warm.single.cycles, warm.dual_none.cycles, warm.dual_local.cycles) == (
            cold.single.cycles, cold.dual_none.cycles, cold.dual_local.cycles,
        )

    def test_changed_seed_misses(self, tmp_path):
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL),
            cache=ArtifactCache(tmp_path),
        )
        rerun = ArtifactCache(tmp_path)
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL, trace_seed=11),
            cache=rerun,
        )
        assert rerun.stats.compile_misses == 0  # binary unchanged
        assert rerun.stats.trace_misses == 2  # both binaries re-traced

    def test_changed_length_misses(self, tmp_path):
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL),
            cache=ArtifactCache(tmp_path),
        )
        rerun = ArtifactCache(tmp_path)
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL + 1), cache=rerun
        )
        assert rerun.stats.trace_misses == 2

    def test_changed_partitioner_misses_rescheduled_binary_only(self, tmp_path):
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL),
            cache=ArtifactCache(tmp_path),
        )
        rerun = ArtifactCache(tmp_path)
        evaluate_workload(
            SPEC92["ora"](),
            EvaluationOptions(
                trace_length=TL, partitioner=LocalScheduler(imbalance_threshold=9)
            ),
            cache=rerun,
        )
        assert rerun.stats.compile_misses == 1  # only the partitioned compile
        assert rerun.stats.compile_hits == 2  # native binary reused

    def test_changed_program_misses(self, tmp_path):
        evaluate_workload(
            SPEC92["ora"](), EvaluationOptions(trace_length=TL),
            cache=ArtifactCache(tmp_path),
        )
        rerun = ArtifactCache(tmp_path)
        evaluate_workload(
            SPEC92["compress"](), EvaluationOptions(trace_length=TL), cache=rerun
        )
        # Both compress binaries recompiled; nothing reused from ora's
        # disk entries (the one memory hit is compress's own native
        # binary shared between the single and dual_none parts).
        assert rerun.stats.compile_misses == 2
        assert rerun.stats.disk_hits == 0


class TestCacheStats:
    def test_delta_and_merge_roundtrip(self):
        stats = CacheStats(compile_hits=5, trace_misses=2, disk_writes=1)
        baseline = CacheStats(compile_hits=3)
        delta = stats.delta(baseline)
        assert delta.compile_hits == 2 and delta.trace_misses == 2
        merged = CacheStats()
        merged.merge(baseline)
        merged.merge(delta)
        assert merged == stats

    def test_as_dict_and_format(self):
        stats = CacheStats(compile_hits=1, compile_misses=2)
        payload = stats.as_dict()
        assert payload["hits"] == 1 and payload["misses"] == 2
        assert "compile 1 hit/2 miss" in stats.format()

    def test_artifacts_pickle(self, tmp_path):
        # The disk tier and the process pool both require picklable
        # compile/trace artifacts.
        from repro.experiments.harness import evaluate_workload_part

        outcome = evaluate_workload_part(
            SPEC92["ora"](), "single", EvaluationOptions(trace_length=TL)
        )
        clone = pickle.loads(pickle.dumps(outcome))
        assert clone.sim.cycles == outcome.sim.cycles
