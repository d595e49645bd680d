"""Search reports: trajectory JSONL, frontier JSON, and terminal tables.

Determinism contract (DESIGN.md Section 16): a trajectory file contains
**no timestamps, hostnames, durations, or provenance** — only the seeded
search's decisions and the trials' values — and every record is dumped
with sorted keys.  Two runs of the same driver with the same seed and
settings therefore produce byte-identical files, and a run resumed from
a journal after a crash produces the *same bytes* as an uninterrupted
one.  The CI ``gym-smoke`` job and ``tests/gym`` enforce this with
literal file comparisons.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.gym.fitness import Baseline, GymSettings, TrialResult
from repro.robustness.atomicio import atomic_write_json, atomic_write_text

#: Trajectory record schema version (bumped on incompatible change).
TRAJECTORY_SCHEMA = 1

#: Required keys per record kind (schema validation for tests/CI).
_RECORD_KEYS = {
    "header": {"schema", "kind", "driver", "seed", "settings", "baseline"},
    "trial": {"schema", "kind", "index", "generation", "trial"},
    "frontier": {"schema", "kind", "trials"},
}
_TRIAL_KEYS = {"point", "slug", "cycles", "rel_cycles", "cycle_time_ps", "speedup"}


def header_record(driver: str, seed: int, settings: GymSettings, baseline: Baseline) -> dict:
    return {
        "schema": TRAJECTORY_SCHEMA,
        "kind": "header",
        "driver": driver,
        "seed": seed,
        "settings": {
            "benchmarks": list(settings.benchmarks),
            "trace_length": settings.trace_length,
            "trace_seed": settings.trace_seed,
            "tech": settings.tech,
            "part": settings.part,
        },
        "baseline": baseline.as_dict(),
    }


def trial_record(index: int, generation: int, trial: TrialResult) -> dict:
    return {
        "schema": TRAJECTORY_SCHEMA,
        "kind": "trial",
        "index": index,
        "generation": generation,
        "trial": trial.as_dict(),
    }


def frontier_record(frontier: Sequence[TrialResult]) -> dict:
    return {
        "schema": TRAJECTORY_SCHEMA,
        "kind": "frontier",
        "trials": [t.as_dict() for t in frontier],
    }


def validate_record(record: dict) -> None:
    """Raise :class:`ConfigError` on a malformed trajectory record."""
    kind = record.get("kind")
    required = _RECORD_KEYS.get(kind or "")
    if required is None:
        raise ConfigError(f"unknown trajectory record kind {kind!r}", kind=kind)
    missing = required - set(record)
    if missing:
        raise ConfigError(
            f"trajectory {kind} record missing keys {sorted(missing)}",
            kind=kind,
        )
    if record["schema"] != TRAJECTORY_SCHEMA:
        raise ConfigError(
            f"trajectory schema {record['schema']} != {TRAJECTORY_SCHEMA}",
            kind=kind,
        )
    trials = [record["trial"]] if kind == "trial" else record.get("trials", [])
    for payload in trials:
        missing = _TRIAL_KEYS - set(payload)
        if missing:
            raise ConfigError(
                f"trial payload missing keys {sorted(missing)}", kind=kind
            )


def dump_records(records: Iterable[dict]) -> str:
    """Canonical JSONL text for a trajectory (sorted keys, one per line)."""
    lines = []
    for record in records:
        validate_record(record)
        lines.append(json.dumps(record, sort_keys=True))
    return "".join(line + "\n" for line in lines)


def write_trajectory(path: Union[str, os.PathLike], records: Iterable[dict]) -> None:
    """Write the whole trajectory atomically (tmp + fsync + rename): a
    crashed writer leaves the previous file intact, never a torn one.
    Durability during the search itself is the run journal's job."""
    atomic_write_text(path, dump_records(records))


def load_trajectory(path: Union[str, os.PathLike]) -> list[dict]:
    """Read and validate a trajectory file."""
    records = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ConfigError(
                    f"torn trajectory line: {error}", path=str(path)
                ) from None
            validate_record(record)
            records.append(record)
    return records


def write_frontier(path: Union[str, os.PathLike], frontier: Sequence[TrialResult]) -> None:
    """Frontier as one canonical JSON document (sorted keys, trailing \\n),
    written atomically like the trajectory."""
    record = frontier_record(frontier)
    validate_record(record)
    atomic_write_json(path, record)


def format_frontier(frontier: Sequence[TrialResult], baseline: Optional[Baseline] = None) -> str:
    """Terminal table of the frontier, IPC-best first."""
    lines = [
        f"{'design point':<34} {'clusters':>8} {'rel cycles':>10} "
        f"{'cycle ps':>9} {'speedup':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for trial in frontier:
        lines.append(
            f"{trial.point.slug:<34} {trial.point.num_clusters:>8} "
            f"{trial.rel_cycles:>10.4f} {trial.cycle_time_ps:>9.1f} "
            f"{trial.speedup:>8.4f}"
        )
    if baseline is not None:
        lines.append(
            f"{'(baseline 1x8-way)':<34} {1:>8} {1.0:>10.4f} "
            f"{baseline.cycle_time_ps:>9.1f} {1.0:>8.4f}"
        )
    return "\n".join(lines)
