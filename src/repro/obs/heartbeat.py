"""Sweep heartbeats: periodic progress lines with ETA and cache health.

A ``--jobs 8`` Table-2 sweep is silent for minutes at a time; the
heartbeat turns that silence into one line every few seconds::

    table2: 4/18 rows (22%), elapsed 31.2s, eta 109.1s, cache 61.5% hit, journal lag 0.4s

Lines go through ``logging.getLogger("repro.heartbeat")`` (the CLI's
``-v``/``--quiet`` flags control them) and, when the sweep has a run
journal, each emitted heartbeat is also journaled as a durable
``status: "heartbeat"`` record — a killed sweep's journal then shows how
far it got and how fast it was moving.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Optional

log = logging.getLogger("repro.heartbeat")

#: Default seconds between emitted heartbeats.
DEFAULT_INTERVAL_S = 5.0


class Heartbeat:
    """Progress tracker for a sweep of ``total`` units.

    Call :meth:`note` once per finished unit; a line is emitted (and
    journaled) whenever at least ``interval_s`` elapsed since the last
    one.  ``interval_s=0`` emits on every note — the deterministic mode
    tests use.  ``interval_s=None`` disables emission entirely while
    keeping the counters, so callers can wire it unconditionally.
    """

    def __init__(
        self,
        total: int,
        label: str = "sweep",
        interval_s: Optional[float] = DEFAULT_INTERVAL_S,
        journal=None,
        cache=None,
        spans=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.total = total
        self.label = label
        self.interval_s = interval_s
        self.journal = journal
        self.cache = cache
        self.spans = spans
        self.clock = clock
        self.done = 0
        self.emitted = 0
        self.started = clock()
        self._last_emit = self.started

    # ----------------------------------------------------------- progress
    def note(self, unit: str = "") -> None:
        """Record one finished unit (``unit`` names it in debug logs)."""
        self.done += 1
        if unit:
            log.debug("%s: finished %s", self.label, unit)
        if self.interval_s is None:
            return
        now = self.clock()
        if self.done >= self.total or now - self._last_emit >= self.interval_s:
            self.emit(now)

    def emit(self, now: Optional[float] = None) -> dict:
        """Emit (and journal) a heartbeat right now; returns the payload."""
        if now is None:
            now = self.clock()
        self._last_emit = now
        self.emitted += 1
        payload = self.snapshot(now)
        log.info("%s", self._format(payload))
        if self.journal is not None:
            self.journal.record_heartbeat(payload)
        return payload

    # ----------------------------------------------------------- snapshot
    def snapshot(self, now: Optional[float] = None) -> dict:
        if now is None:
            now = self.clock()
        # A first heartbeat can fire with zero rows done, and a resumed
        # sweep can finish rows with zero elapsed wall time (all cache
        # hits under a coarse clock).  Neither may divide by zero: no
        # rows -> no rate -> no ETA; rows-in-no-time -> ETA now.
        elapsed = max(0.0, now - self.started)
        remaining = max(0, self.total - self.done)
        rate = self.done / elapsed if self.done > 0 and elapsed > 0 else None
        if self.done <= 0:
            eta = None
        elif rate is None:
            eta = 0.0
        else:
            eta = remaining / rate
        payload = {
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "elapsed_s": round(elapsed, 3),
            "rate_rows_per_s": round(rate, 6) if rate is not None else None,
            "eta_s": round(eta, 3) if eta is not None else None,
        }
        if self.cache is not None:
            stats = self.cache.stats
            payload["cache_hit_rate"] = round(stats.hit_rate, 6)
        if self.spans is not None:
            payload["spans_emitted"] = self.spans.emitted
        # Journal lag is the monotonic age of the last durable append —
        # like elapsed/ETA above, never a wall-clock delta.
        if self.journal is not None and self.journal.last_append is not None:
            payload["journal_lag_s"] = round(now - self.journal.last_append, 3)
        return payload

    def _format(self, payload: dict) -> str:
        total = payload["total"] or 1
        parts = [
            f"{payload['label']}: {payload['done']}/{payload['total']} rows "
            f"({100 * payload['done'] // total}%)",
            f"elapsed {payload['elapsed_s']:.1f}s",
        ]
        if payload["eta_s"] is not None:
            parts.append(f"eta {payload['eta_s']:.1f}s")
        if "cache_hit_rate" in payload:
            parts.append(f"cache {100 * payload['cache_hit_rate']:.1f}% hit")
        if "spans_emitted" in payload:
            parts.append(f"{payload['spans_emitted']} spans")
        if "journal_lag_s" in payload:
            parts.append(f"journal lag {payload['journal_lag_s']:.1f}s")
        return ", ".join(parts)


__all__ = ["DEFAULT_INTERVAL_S", "Heartbeat"]
