"""Tests for the search drivers: determinism, journal resume, kill/resume.

The contract under test (DESIGN.md Section 16): same spec + settings ⇒
byte-identical trajectory and frontier, serially, under ``--jobs``, and
across a SIGKILL + ``--resume``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.gym.drivers import (
    DRIVERS,
    MIN_RUNG_TRACE,
    SearchSpec,
    halving_rungs,
    run_search,
)
from repro.gym.fitness import GymSettings
from repro.gym.report import (
    dump_records,
    frontier_record,
    header_record,
    trial_record,
)
from repro.gym.space import DesignSpace
from repro.perf.cache import ArtifactCache
from repro.robustness.journal import RunJournal

SETTINGS = GymSettings(benchmarks=("compress",), trace_length=600)

#: Small axes keep the grid driver (and rejection sampling) cheap while
#: still spanning 1-3 clusters and asymmetric genomes.
SPACE = DesignSpace(
    max_clusters=3,
    widths=(2, 4),
    queue_entries=(32, 64),
    registers=(64,),
    buffer_entries=(4, 8),
    extra_globals=(0, 2),
)


def spec_for(driver):
    return SearchSpec(
        driver=driver, seed=42, budget=3, population=3, generations=2, elite=1
    )


def trajectory_bytes(result):
    """The exact bytes ``repro explore --trajectory`` writes."""
    records = [
        header_record(
            result.spec.driver, result.spec.seed, result.settings, result.baseline
        )
    ]
    records += [trial_record(i, g, t) for i, g, t in result.trials]
    records.append(frontier_record(result.frontier))
    return dump_records(records)


@pytest.fixture(scope="module")
def cache():
    return ArtifactCache()


class TestSpecValidation:
    def test_unknown_driver(self):
        with pytest.raises(ConfigError, match="unknown search driver"):
            SearchSpec(driver="annealing")

    def test_nonpositive_budget(self):
        with pytest.raises(ConfigError, match="budget"):
            SearchSpec(budget=0)

    def test_elite_bounded_by_population(self):
        with pytest.raises(ConfigError, match="elite"):
            SearchSpec(elite=9, population=8)

    def test_eta_floor(self):
        with pytest.raises(ConfigError, match="eta"):
            SearchSpec(eta=1)

    def test_mutation_rate_range(self):
        with pytest.raises(ConfigError, match="mutation_rate"):
            SearchSpec(mutation_rate=1.5)


class TestHalvingRungs:
    def test_paper_default_schedule(self):
        spec = SearchSpec(driver="halving", budget=16, eta=3)
        assert halving_rungs(GymSettings(trace_length=12_000), spec) == [
            2_000,
            4_000,
            12_000,
        ]

    def test_last_rung_is_the_full_length(self):
        for budget in (4, 16, 64):
            spec = SearchSpec(driver="halving", budget=budget)
            rungs = halving_rungs(GymSettings(trace_length=12_000), spec)
            assert rungs[-1] == 12_000
            assert rungs == sorted(rungs)
            assert all(r >= MIN_RUNG_TRACE for r in rungs)

    def test_short_traces_collapse_to_one_rung(self):
        spec = SearchSpec(driver="halving", budget=16)
        assert halving_rungs(SETTINGS, spec) == [600]


class TestDeterminism:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_same_seed_same_bytes(self, driver, cache):
        first = run_search(spec_for(driver), SPACE, SETTINGS, cache=cache)
        again = run_search(spec_for(driver), SPACE, SETTINGS, cache=cache)
        assert trajectory_bytes(first) == trajectory_bytes(again)
        assert [t.as_dict() for t in first.frontier] == [
            t.as_dict() for t in again.frontier
        ]
        assert first.frontier, "search must report a non-empty frontier"

    def test_different_seeds_explore_differently(self, cache):
        a = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache)
        b = run_search(
            replace(spec_for("random"), seed=43), SPACE, SETTINGS, cache=cache
        )
        assert [t.point.slug for _, _, t in a.trials] != [
            t.point.slug for _, _, t in b.trials
        ]

    def test_parallel_matches_serial(self, cache):
        serial = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache)
        fanned = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache, jobs=2)
        assert trajectory_bytes(serial) == trajectory_bytes(fanned)

    def test_best_is_the_frontier_speedup_maximizer(self, cache):
        result = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache)
        assert result.best in result.frontier
        assert result.best.speedup == max(t.speedup for t in result.frontier)


class TestJournalResume:
    def test_complete_journal_replays_every_trial(self, tmp_path, cache):
        reference = run_search(spec_for("evolutionary"), SPACE, SETTINGS, cache=cache)
        with RunJournal(tmp_path / "run") as journal:
            first = run_search(
                spec_for("evolutionary"), SPACE, SETTINGS, cache=cache, journal=journal
            )
        # Elites repeat across generations, so even the first run may hit
        # its own rows — but never for all trials.
        assert first.journal_hits < len(first.trials)
        with RunJournal(tmp_path / "run") as journal:
            resumed = run_search(
                spec_for("evolutionary"), SPACE, SETTINGS, cache=cache, journal=journal
            )
        assert resumed.journal_hits == len(resumed.trials)
        assert trajectory_bytes(resumed) == trajectory_bytes(reference)

    def test_partial_journal_resumes_bit_identically(self, tmp_path, cache):
        # A budget-2 run journals a prefix of the budget-3 run (same seed,
        # same rng draw order), so resuming the larger search replays it.
        reference = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache)
        with RunJournal(tmp_path / "run") as journal:
            run_search(
                replace(spec_for("random"), budget=2),
                SPACE,
                SETTINGS,
                cache=cache,
                journal=journal,
            )
        with RunJournal(tmp_path / "run") as journal:
            resumed = run_search(
                spec_for("random"), SPACE, SETTINGS, cache=cache, journal=journal
            )
        assert resumed.journal_hits >= 2
        assert trajectory_bytes(resumed) == trajectory_bytes(reference)

    def test_changed_settings_invalidate_journal_rows(self, tmp_path, cache):
        with RunJournal(tmp_path / "run") as journal:
            run_search(
                spec_for("random"), SPACE, SETTINGS, cache=cache, journal=journal
            )
        longer = replace(SETTINGS, trace_length=700)
        with RunJournal(tmp_path / "run") as journal:
            resumed = run_search(
                spec_for("random"), SPACE, longer, cache=cache, journal=journal
            )
        assert resumed.journal_hits == 0


KILL_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.gym.drivers import SearchSpec, run_search
from repro.gym.fitness import GymSettings
from repro.gym.space import DesignSpace
from repro.robustness.journal import RunJournal

with RunJournal({run_dir!r}) as journal:
    run_search(
        SearchSpec(driver="random", seed=42, budget=3),
        DesignSpace(max_clusters=3, widths=(2, 4), queue_entries=(32, 64),
                    registers=(64,), buffer_entries=(4, 8), extra_globals=(0, 2)),
        GymSettings(benchmarks=("compress",), trace_length=600),
        journal=journal,
    )
"""


class TestKillAndResume:
    def test_sigkill_mid_search_then_resume(self, tmp_path, cache):
        """SIGKILL a live search process, resume, demand the same bytes."""
        reference = run_search(spec_for("random"), SPACE, SETTINGS, cache=cache)
        run_dir = tmp_path / "run"
        src = str(Path(__file__).resolve().parents[2] / "src")
        driver = KILL_DRIVER.format(src=src, run_dir=str(run_dir))
        proc = subprocess.Popen([sys.executable, "-c", driver])
        journal_path = run_dir / "journal.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before the kill; resume still must agree
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
            resumed = run_search(
                spec_for("random"), SPACE, SETTINGS, cache=cache, journal=journal
            )
        assert trajectory_bytes(resumed) == trajectory_bytes(reference)
        assert [t.as_dict() for t in resumed.frontier] == [
            t.as_dict() for t in reference.frontier
        ]


class TestGridDriver:
    def test_empty_grid_rejected(self, cache):
        # Every lattice point infeasible: 16-register files can hold the
        # namespace at neither one nor two clusters.
        barren = DesignSpace(
            max_clusters=2,
            widths=(8,),
            queue_entries=(16,),
            registers=(16,),
            buffer_entries=(1,),
            extra_globals=(0,),
        )
        with pytest.raises(ConfigError, match="grid is empty"):
            run_search(spec_for("grid"), barren, SETTINGS, cache=cache)


class TestGymSpans:
    def _spans(self, tmp_path, name, driver="random"):
        from repro.obs.spans import SpanWriter, canonical_lines, split_spans

        run_dir = tmp_path / name
        with SpanWriter(run_dir) as writer:
            run_search(
                spec_for(driver), SPACE, SETTINGS,
                cache=ArtifactCache(), spans=writer,
            )
            trace_id = writer.trace_id
        from repro.obs.spans import load_run_spans

        det, wall = split_spans(load_run_spans(run_dir))
        return trace_id, det, wall, canonical_lines(det)

    def test_rung_and_trial_spans_emitted(self, tmp_path):
        trace_id, det, _, _ = self._spans(tmp_path, "a")
        kinds = {s.kind for s in det}
        assert kinds == {"gym_rung", "gym_trial"}
        rungs = [s for s in det if s.kind == "gym_rung"]
        trials = [s for s in det if s.kind == "gym_trial"]
        assert rungs and trials
        assert all(s.trace_id == trace_id for s in det)
        rung_ids = {s.span_id for s in rungs}
        assert all(s.parent_id in rung_ids for s in trials)
        # Virtual time: a trial costs its simulated cycles, a rung the
        # sum of its trials'.
        by_rung = {}
        for trial in trials:
            by_rung.setdefault(trial.parent_id, 0)
            by_rung[trial.parent_id] += trial.duration_u
        for rung in rungs:
            assert rung.duration_u == by_rung[rung.span_id]

    def test_same_search_same_span_bytes(self, tmp_path):
        _, _, _, first = self._spans(tmp_path, "a")
        _, _, _, again = self._spans(tmp_path, "b")
        assert first == again

    def test_different_seed_different_trace(self, tmp_path):
        trace_a, _, _, _ = self._spans(tmp_path, "a")
        from repro.obs.spans import SpanWriter

        run_dir = tmp_path / "c"
        with SpanWriter(run_dir) as writer:
            run_search(
                replace(spec_for("random"), seed=7), SPACE, SETTINGS,
                cache=ArtifactCache(), spans=writer,
            )
            assert writer.trace_id != trace_a
