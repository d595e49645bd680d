"""Append-only JSONL run journal: crash-safe sweep progress + resume.

A sweep that dies — SIGKILL, OOM, power loss — must not throw away its
completed rows.  Every sweep driver (Table 2, ablations, the gym,
chaos) can attach a :class:`RunJournal` rooted at a *run
directory*::

    run-dir/
        journal.jsonl          one JSON record per completed/failed row,
                               appended and fsync'd before the sweep moves on
        journal-<shard>.jsonl  the same, for a named shard (one journal per
                               executor/host when a sweep is split)
        artifacts/<key>.pkl    pickled row results too rich for JSON
                               (e.g. a full BenchmarkEvaluation)
        bundles/<key>.json     replay bundles for unrecoverable failures

**Sharded sweeps**: several executors (or hosts sharing a filesystem)
can journal into the same run directory without contending on one file
by each opening the journal with a distinct ``shard`` name.  Because
records are content-addressed, :func:`merge_journals` can later fold any
set of shards into a single resume-equivalent journal: rows are keyed by
``(key, fingerprint)``, so duplicates collapse, a completed row beats a
failed one for the same inputs, and ``--resume`` against the merged
directory reuses exactly the union of the shards' completed work.

The journal is *content-addressed*: each record carries a fingerprint of
every input that determines the row's value (via
:func:`repro.perf.fingerprint.fingerprint`).  ``--resume <run-dir>``
reuses a journaled row only when its key **and** fingerprint match the
current request, so resuming after editing options recomputes rather
than serving stale rows — and a resumed table is bit-identical to an
uninterrupted run, because the reused rows *are* the original results.

Append durability: each record is one ``write()`` of one line followed
by ``flush`` + ``fsync``.  A crash mid-append leaves at most one torn
trailing line, which the reader detects and ignores (the row is simply
recomputed on resume).
"""

from __future__ import annotations

import io
import json
import os
import pickle
import re
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.robustness.atomicio import atomic_write_bytes

#: Schema version stamped on every journal record.
JOURNAL_SCHEMA = 1

_SLUG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _slug(key: str) -> str:
    """Filesystem-safe name for a row key."""
    return _SLUG_RE.sub("_", key).strip("_") or "row"


def parse_journal_line(line: str):
    """Classify one journal line; returns ``(kind, value)``.

    Kinds: ``"blank"`` (value ``None``), ``"torn"`` (unparseable or
    incomplete — value ``None``), ``"heartbeat"`` / ``"event"`` (value:
    the raw record dict), ``"row"`` (value: a :class:`JournalEntry`).
    Shared by the loader and the shard merger so both apply the same
    torn-line tolerance.
    """
    line = line.strip()
    if not line:
        return "blank", None
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("journal record is not an object")
        status = record.get("status")
        if status == "heartbeat":
            return "heartbeat", record
        if status == "event":
            return "event", record
        entry = JournalEntry(
            **{
                k: v
                for k, v in record.items()
                if k in JournalEntry.__dataclass_fields__
            }
        )
        if not entry.key or entry.status not in ("completed", "failed"):
            raise ValueError("incomplete journal record")
    except (ValueError, TypeError):
        # A torn tail from a killed writer (or hand-edited garbage):
        # the row is recomputed, never trusted.
        return "torn", None
    return "row", entry


def shard_journal_paths(run_dir: Union[str, os.PathLike]) -> list[Path]:
    """Every journal file in a run directory, primary first then shards
    in sorted (deterministic) order."""
    run_dir = Path(run_dir)
    paths = []
    primary = run_dir / "journal.jsonl"
    if primary.exists():
        paths.append(primary)
    paths.extend(sorted(run_dir.glob("journal-*.jsonl")))
    return paths


def options_fingerprint(options: Any) -> str:
    """Fingerprint of every :class:`EvaluationOptions` field that can
    change a row's *value*.

    Excluded on purpose: ``jobs`` (parallel runs are bit-identical to
    serial), ``cache`` (a cache hit returns the same artifact), and
    ``retry`` (retries only repeat the same deterministic computation).
    Included: the fault plan — an injected fault absolutely changes the
    outcome, so a chaos journal can never satisfy a clean resume.
    """
    from repro.perf.fingerprint import fingerprint

    return fingerprint(
        (
            "journal-options/v1",
            options.trace_length,
            options.trace_seed,
            options.partitioner,
            options.single_config,
            options.dual_config,
            options.dual_assignment,
            options.compiler,
            True,  # pre-flight validation, always on; kept so keys stay put
            options.self_check,
            options.cycle_budget,
            options.fault_plan,
        )
    )


@dataclass
class JournalEntry:
    """One journaled row outcome."""

    key: str
    status: str  # "completed" | "failed"
    fingerprint: str
    attempts: int = 1
    elapsed_s: float = 0.0
    #: JSON-native row payload (small results live inline).
    payload: Optional[dict] = None
    #: Relative path of a pickled artifact under the run dir.
    artifact: Optional[str] = None
    #: Error record for failed rows: type/message/context.
    error: Optional[dict] = None
    #: Relative path of the replay bundle for failed rows.
    bundle: Optional[str] = None
    timestamp: str = ""
    schema: int = JOURNAL_SCHEMA

    @property
    def completed(self) -> bool:
        return self.status == "completed"


class RunJournal:
    """The append-only journal of one run directory.

    Opening an existing run directory loads its surviving records (the
    resume path); records appended afterwards land in the same file.

    ``shard`` names this writer's private journal file
    (``journal-<shard>.jsonl``) inside the shared run directory — the
    multi-executor/multi-host mode.  A sharded journal only loads its
    own file; :func:`merge_journals` is how shards become one resumable
    journal again.
    """

    def __init__(
        self,
        run_dir: Union[str, os.PathLike],
        shard: Optional[str] = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.shard = shard
        if shard is None:
            self.path = self.run_dir / "journal.jsonl"
        else:
            self.path = self.run_dir / f"journal-{_slug(shard)}.jsonl"
        #: Latest surviving entry per key, in journal order.
        self._entries: dict[str, JournalEntry] = {}
        #: Heartbeat/progress records (obs.heartbeat), in journal order.
        #: Not rows: they never satisfy a resume lookup.
        self.heartbeats: list[dict] = []
        #: Executor/orchestration incident records (``status: "event"``,
        #: e.g. a circuit-breaker degradation).  Not rows either.
        self.events: list[dict] = []
        #: Torn/corrupt lines skipped while loading (diagnostics).
        self.skipped_lines = 0
        self._load()
        self._fh: Optional[io.TextIOWrapper] = None
        #: ``time.monotonic()`` of the last append in this process
        #: (``None`` before the first) — the heartbeat's "journal lag".
        self.last_append: Optional[float] = None

    # ------------------------------------------------------------- loading
    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                kind, value = parse_journal_line(line)
                if kind == "blank":
                    continue
                if kind == "torn":
                    self.skipped_lines += 1
                elif kind == "heartbeat":
                    self.heartbeats.append(value)
                elif kind == "event":
                    self.events.append(value)
                else:
                    self._entries[value.key] = value

    # ------------------------------------------------------------ appending
    def _append_line(self, record: dict) -> None:
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.last_append = time.monotonic()

    def _append(self, entry: JournalEntry) -> None:
        self._append_line(asdict(entry))
        self._entries[entry.key] = entry

    def record_heartbeat(self, payload: dict) -> dict:
        """Journal a sweep heartbeat (progress snapshot, not a row).

        Heartbeats share the journal's append durability, so a killed
        sweep's last record shows how far it got; readers route them to
        :attr:`heartbeats` and they never shadow or satisfy a row key.
        """
        record = {
            "status": "heartbeat",
            "schema": JOURNAL_SCHEMA,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            **payload,
        }
        self._append_line(record)
        self.heartbeats.append(record)
        return record

    def record_event(self, kind: str, payload: dict) -> dict:
        """Journal an orchestration incident (not a row, not progress).

        Today's producer is the supervised sweep executor journaling an
        ``executor_degradation``; like heartbeats, events share append
        durability, never satisfy a resume lookup, and survive reload
        (in :attr:`events`) so post-mortems see *how* a run completed,
        not just that it did.
        """
        record = {
            "status": "event",
            "kind": kind,
            "schema": JOURNAL_SCHEMA,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "payload": payload,
        }
        self._append_line(record)
        self.events.append(record)
        return record

    def record_completed(
        self,
        key: str,
        fingerprint: str,
        *,
        payload: Optional[dict] = None,
        artifact_value: Any = None,
        attempts: int = 1,
        elapsed_s: float = 0.0,
    ) -> JournalEntry:
        """Journal a completed row; ``artifact_value`` is pickled durably
        to ``artifacts/`` and referenced by relative path."""
        artifact = None
        if artifact_value is not None:
            artifact = f"artifacts/{_slug(key)}.pkl"
            atomic_write_bytes(
                self.run_dir / artifact,
                pickle.dumps(artifact_value, protocol=pickle.HIGHEST_PROTOCOL),
            )
        entry = JournalEntry(
            key=key,
            status="completed",
            fingerprint=fingerprint,
            attempts=attempts,
            elapsed_s=round(elapsed_s, 6),
            payload=payload,
            artifact=artifact,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )
        self._append(entry)
        return entry

    def record_failed(
        self,
        key: str,
        fingerprint: str,
        *,
        error: dict,
        attempts: int = 1,
        elapsed_s: float = 0.0,
        bundle: Optional[str] = None,
    ) -> JournalEntry:
        entry = JournalEntry(
            key=key,
            status="failed",
            fingerprint=fingerprint,
            attempts=attempts,
            elapsed_s=round(elapsed_s, 6),
            error=error,
            bundle=bundle,
            timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        )
        self._append(entry)
        return entry

    # -------------------------------------------------------------- lookup
    def entries(self) -> list[JournalEntry]:
        return list(self._entries.values())

    def entry(self, key: str) -> Optional[JournalEntry]:
        return self._entries.get(key)

    def completed(self, key: str, fingerprint: str) -> Optional[JournalEntry]:
        """The journaled completed entry for ``key`` — only if its inputs
        fingerprint matches the current request."""
        entry = self._entries.get(key)
        if entry is not None and entry.completed and entry.fingerprint == fingerprint:
            return entry
        return None

    def load_artifact(self, entry: Optional[JournalEntry]) -> Any:
        """Unpickle an entry's artifact; ``None`` on any damage (the row
        is then recomputed — a corrupt sidecar must never abort resume)."""
        if entry is None or entry.artifact is None:
            return None
        try:
            with (self.run_dir / entry.artifact).open("rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return None

    # --------------------------------------------------------------- paths
    def bundle_path(self, key: str) -> Path:
        """Where a replay bundle for ``key`` belongs (relative: bundles/)."""
        return self.run_dir / "bundles" / f"{_slug(key)}.json"

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_journal(
    run_dir: Union[str, os.PathLike, None],
    shard: Optional[str] = None,
) -> Optional[RunJournal]:
    """CLI convenience: a journal for ``--resume DIR``, or ``None``.

    Rejects a path that exists but is not a directory (a typo'd file
    path would otherwise shadow every row).  ``shard`` (the CLI's
    ``--shard``) routes this writer to ``journal-<shard>.jsonl``.
    """
    if run_dir is None:
        if shard is not None:
            raise ConfigError(
                "--shard requires a run directory (--resume DIR)",
                shard=shard,
            )
        return None
    path = Path(run_dir)
    if path.exists() and not path.is_dir():
        raise ConfigError(
            f"--resume target {str(path)!r} exists and is not a directory",
            run_dir=str(path),
        )
    return RunJournal(path, shard=shard)


# ------------------------------------------------------------- shard merge
@dataclass
class MergeReport:
    """What :func:`merge_journals` did, for humans and for CI logs."""

    output: str
    shards: list[str] = field(default_factory=list)
    rows_merged: int = 0
    duplicates_dropped: int = 0
    conflicts: int = 0
    torn_lines: int = 0
    heartbeats_dropped: int = 0
    events_kept: int = 0
    artifacts_copied: int = 0
    artifacts_missing: int = 0
    spans_merged: int = 0
    wall_spans_kept: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    def format(self) -> str:
        lines = [
            f"merged {len(self.shards)} shard journal(s) -> {self.output}",
            f"  rows:       {self.rows_merged} "
            f"({self.duplicates_dropped} duplicate(s) dropped, "
            f"{self.conflicts} conflict(s) resolved latest-wins)",
            f"  tolerated:  {self.torn_lines} torn line(s), "
            f"{self.heartbeats_dropped} heartbeat(s) dropped",
            f"  events:     {self.events_kept} kept",
            f"  artifacts:  {self.artifacts_copied} copied, "
            f"{self.artifacts_missing} missing (rows recompute on resume)",
        ]
        if self.spans_merged or self.wall_spans_kept:
            lines.append(
                f"  spans:      {self.spans_merged} deterministic merged, "
                f"{self.wall_spans_kept} wall-clock kept"
            )
        return "\n".join(lines)


def _shard_journal_files(shard: Union[str, os.PathLike]) -> list[Path]:
    """Journal files named by one merge input (a file or a run dir)."""
    path = Path(shard)
    if path.is_file():
        return [path]
    if path.is_dir():
        files = shard_journal_paths(path)
        if not files:
            raise ConfigError(
                f"run directory {str(path)!r} contains no journal files",
                shard=str(path),
            )
        return files
    raise ConfigError(
        f"journal shard {str(path)!r} does not exist", shard=str(path)
    )


def merge_journals(
    shards: Sequence[Union[str, os.PathLike]],
    output_dir: Union[str, os.PathLike],
    *,
    dry_run: bool = False,
) -> MergeReport:
    """Merge shard journals into one resume-equivalent run directory.

    Each input may be a journal *file* or a *run directory* (all of the
    directory's journals — primary plus shards — are taken).  Rows are
    content-addressed, so the merge is a pure fold:

    * the same ``(key, fingerprint)`` appearing in several shards is one
      row — duplicates are dropped, and a ``completed`` record beats a
      ``failed`` one (a row that failed on one host but completed on
      another *is* completed);
    * the same key with a *different* fingerprint means the shards were
      run with different inputs — counted as a conflict, latest shard
      wins (and a resume with either fingerprint recomputes the loser,
      so a conflicted merge can never serve a wrong row);
    * heartbeats are per-shard progress noise and are dropped; events
      (executor degradations etc.) are part of the run's history and are
      kept; torn lines are tolerated exactly as on resume.

    Referenced artifacts and bundles are copied from each winning row's
    shard directory into the output run directory; a missing artifact is
    tolerated (the row recomputes on resume, same as local damage).

    The output directory must not already contain a primary journal —
    merging over a live run would silently shadow its rows.

    ``dry_run=True`` performs the whole fold — the same winners, the
    same conflict/duplicate/torn accounting, including checking which
    referenced artifacts exist — but writes nothing: no output
    directory, no merged journal, no copied artifacts.  The returned
    :class:`MergeReport` is what the real merge *would* report.
    """
    if not shards:
        raise ConfigError("journal merge needs at least one shard")
    output_dir = Path(output_dir)
    if not dry_run and (output_dir / "journal.jsonl").exists():
        raise ConfigError(
            f"output directory {str(output_dir)!r} already contains "
            "journal.jsonl; refusing to merge over an existing journal",
            output=str(output_dir),
        )

    report = MergeReport(output=str(output_dir))
    winners: dict[str, tuple[JournalEntry, Path]] = {}
    order: list[str] = []  # first-seen key order, for a stable output
    events: list[dict] = []
    for shard in shards:
        for journal_file in _shard_journal_files(shard):
            report.shards.append(str(journal_file))
            src_dir = journal_file.parent
            with journal_file.open("r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    kind, value = parse_journal_line(line)
                    if kind == "blank":
                        continue
                    if kind == "torn":
                        report.torn_lines += 1
                    elif kind == "heartbeat":
                        report.heartbeats_dropped += 1
                    elif kind == "event":
                        events.append(value)
                    else:
                        _merge_row(winners, order, value, src_dir, report)

    if dry_run:
        for key in order:
            entry, src_dir = winners[key]
            for ref in (entry.artifact, entry.bundle):
                if ref is None:
                    continue
                if (src_dir / ref).exists():
                    report.artifacts_copied += 1
                else:
                    report.artifacts_missing += 1
            report.rows_merged += 1
        report.events_kept = len(events)
        _merge_spans(shards, output_dir, report, dry_run=True)
        return report

    with RunJournal(output_dir) as merged:
        for key in order:
            entry, src_dir = winners[key]
            for ref in (entry.artifact, entry.bundle):
                if ref is None:
                    continue
                source = src_dir / ref
                destination = merged.run_dir / ref
                if not source.exists():
                    report.artifacts_missing += 1
                    continue
                if source.resolve() != destination.resolve():
                    destination.parent.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(source, destination)
                report.artifacts_copied += 1
            merged._append(entry)
            report.rows_merged += 1
        for event in events:
            merged._append_line(event)
            merged.events.append(event)
            report.events_kept += 1
    _merge_spans(shards, output_dir, report, dry_run=False)
    return report


def _merge_spans(
    shards: Sequence[Union[str, os.PathLike]],
    output_dir: Path,
    report: MergeReport,
    *,
    dry_run: bool,
) -> None:
    """Fold per-shard span files into the canonical merged pair.

    Span ids are content fingerprints, so like journal rows the fold is
    a pure dedupe: the driver's spans and a worker shard's copies of the
    same task collapse into one record.  Deterministic spans land in
    ``spans.jsonl`` in canonical order (byte-identical across equivalent
    runs); wall-clock spans are run history, kept in ``spans-wall.jsonl``.
    """
    from repro.obs.spans import (
        dedupe_spans,
        read_spans,
        span_files,
        split_spans,
        write_canonical_spans,
    )

    spans = dedupe_spans(
        span
        for shard in shards
        if Path(shard).is_dir()
        for path in span_files(Path(shard))
        for span in read_spans(path)
    )
    if not spans:
        return
    det, wall = split_spans(spans)
    report.spans_merged = len(det)
    report.wall_spans_kept = len(wall)
    if not dry_run:
        write_canonical_spans(output_dir, spans)


def _merge_row(
    winners: dict,
    order: list,
    entry: JournalEntry,
    src_dir: Path,
    report: MergeReport,
) -> None:
    """Fold one shard row into the winners map (see merge_journals)."""
    current = winners.get(entry.key)
    if current is None:
        winners[entry.key] = (entry, src_dir)
        order.append(entry.key)
        return
    existing, _ = current
    if existing.fingerprint != entry.fingerprint:
        report.conflicts += 1
        winners[entry.key] = (entry, src_dir)  # latest shard wins
        return
    if entry.completed and not existing.completed:
        winners[entry.key] = (entry, src_dir)  # completed beats failed
    report.duplicates_dropped += 1


__all__ = [
    "JOURNAL_SCHEMA",
    "JournalEntry",
    "MergeReport",
    "RunJournal",
    "merge_journals",
    "open_journal",
    "options_fingerprint",
    "parse_journal_line",
    "shard_journal_paths",
]
