"""``repro top``: a live terminal view of a sweep's run directory.

Everything rendered here is read from the run directory's durable
records — journal shards (rows, heartbeats, degradation events) and
span files — never from the sweep process itself, so ``repro top`` can
watch a sweep it does not own: a local ``--jobs`` run, the shards of
``--shard`` runs on several hosts, or a finished directory being
post-mortemed.

The renderer is a pure function of the directory contents
(:func:`render_status`), which is what the tests exercise; the CLI loop
just clears the screen and re-renders every ``--interval`` seconds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

#: A shard whose journal was appended to within this many seconds is
#: rendered as active.
ACTIVE_WINDOW_S = 15.0


@dataclass
class ShardStatus:
    """One journal shard's durable progress."""

    name: str
    path: str
    rows_completed: int = 0
    rows_failed: int = 0
    #: The newest journaled heartbeat payload, if any.
    heartbeat: Optional[dict] = None
    #: Seconds since the journal file was last appended to.
    age_s: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.age_s is not None and self.age_s <= ACTIVE_WINDOW_S


@dataclass
class RunStatus:
    """Everything one :func:`collect_status` pass learned."""

    run_dir: str
    shards: list[ShardStatus] = field(default_factory=list)
    #: Journaled orchestration events (degradations etc.), in order.
    events: list[dict] = field(default_factory=list)
    #: span file name -> record count.
    span_files: dict[str, int] = field(default_factory=dict)

    @property
    def rows_completed(self) -> int:
        return sum(shard.rows_completed for shard in self.shards)

    @property
    def rows_failed(self) -> int:
        return sum(shard.rows_failed for shard in self.shards)


def _shard_name(path: Path) -> str:
    stem = path.stem  # journal / journal-<host>
    if stem.startswith("journal-"):
        return stem[len("journal-"):]
    return "primary"


def collect_status(
    run_dir: Union[str, os.PathLike], now: Optional[float] = None
) -> RunStatus:
    """Read a run directory's journals and span files into a snapshot."""
    from repro.robustness.journal import parse_journal_line, shard_journal_paths

    run_dir = Path(run_dir)
    status = RunStatus(run_dir=str(run_dir))
    if now is None:
        now = time.time()
    for journal_file in shard_journal_paths(run_dir):
        shard = ShardStatus(name=_shard_name(journal_file), path=str(journal_file))
        try:
            shard.age_s = max(0.0, now - journal_file.stat().st_mtime)
        except OSError:  # pragma: no cover - raced deletion
            pass
        try:
            with journal_file.open("r", encoding="utf-8", errors="replace") as fh:
                for line in fh:
                    kind, value = parse_journal_line(line)
                    if kind == "row":
                        if value.completed:
                            shard.rows_completed += 1
                        else:
                            shard.rows_failed += 1
                    elif kind == "heartbeat":
                        shard.heartbeat = value
                    elif kind == "event":
                        status.events.append(value)
        except OSError:  # pragma: no cover - raced deletion
            continue
        status.shards.append(shard)
    from repro.obs.spans import read_spans, span_files

    for span_file in span_files(run_dir):
        status.span_files[span_file.name] = len(read_spans(span_file))
    return status


def _format_heartbeat(payload: dict) -> str:
    parts = []
    done = payload.get("done")
    total = payload.get("total")
    if done is not None and total:
        parts.append(f"{done}/{total} rows ({100 * done // total}%)")
    if payload.get("eta_s") is not None:
        parts.append(f"eta {payload['eta_s']:.1f}s")
    if payload.get("rate_rows_per_s") is not None:
        parts.append(f"{payload['rate_rows_per_s']:.2f} rows/s")
    if payload.get("cache_hit_rate") is not None:
        parts.append(f"cache {100 * payload['cache_hit_rate']:.1f}% hit")
    if payload.get("spans_emitted") is not None:
        parts.append(f"{payload['spans_emitted']} spans")
    if payload.get("journal_lag_s") is not None:
        parts.append(f"lag {payload['journal_lag_s']:.1f}s")
    return ", ".join(parts) if parts else "no progress data"


def render_status(
    run_dir: Union[str, os.PathLike], now: Optional[float] = None
) -> str:
    """One full ``repro top`` frame as text (pure given the directory)."""
    status = collect_status(run_dir, now=now)
    lines = [
        f"repro top - {status.run_dir}",
        f"rows: {status.rows_completed} completed, "
        f"{status.rows_failed} failed, across {len(status.shards)} shard(s)",
        "",
    ]
    if status.shards:
        lines.append(f"{'shard':<24} {'state':<8} {'rows':>6}  progress")
        for shard in status.shards:
            state = "active" if shard.active else "idle"
            rows = shard.rows_completed + shard.rows_failed
            progress = (
                _format_heartbeat(shard.heartbeat)
                if shard.heartbeat is not None
                else "no heartbeat journaled"
            )
            lines.append(f"{shard.name:<24} {state:<8} {rows:>6}  {progress}")
    else:
        lines.append("no journal files yet (is the sweep using --resume?)")
    if status.span_files:
        lines.append("")
        lines.append("spans:")
        for name, count in sorted(status.span_files.items()):
            lines.append(f"  {name:<28} {count:>7} record(s)")
    if status.events:
        lines.append("")
        lines.append(f"degradation events ({len(status.events)}):")
        for event in status.events[-5:]:
            kind = event.get("kind", "event")
            payload = event.get("payload") or {}
            detail = (
                payload.get("detail") or payload.get("reason")
                or event.get("detail") or event.get("reason") or ""
            )
            lines.append(f"  {kind}: {detail}"[:120])
    return "\n".join(lines)


def run_top(
    run_dir: Union[str, os.PathLike],
    *,
    once: bool = False,
    interval_s: float = 2.0,
) -> None:
    """The ``repro top`` loop: clear, render, sleep, repeat."""
    interval_s = max(0.1, interval_s)
    while True:
        frame = render_status(run_dir)
        if not once:
            # ANSI clear + home; falls back to plain scrolling output on
            # dumb terminals, which is still readable.
            print("\033[2J\033[H", end="")
        print(frame)
        if once:
            return
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return


__all__ = [
    "ACTIVE_WINDOW_S",
    "RunStatus",
    "ShardStatus",
    "collect_status",
    "render_status",
    "run_top",
]
