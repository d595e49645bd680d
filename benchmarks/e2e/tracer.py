"""Stack-based call tracer that wraps public names from outside the program.

The benchmark never edits ``src/``.  It replaces module attributes (names a
caller looks up at call time) and class methods with timing wrappers,
records one span per call, and restores the originals afterwards.  A span
carries its wall-clock interval, its *self* time (duration minus the time
its child spans cover), and a context inherited from its ancestors (for
example the benchmark and part an enclosing ``evaluate_workload_part`` call
was working on), so a layer's cost can be split per benchmark or per part
without any span inside the program.

A wrapped name that no longer exists is an error (:class:`TracerError`),
never a silent zero: a renamed compiler step must show up as a failed
benchmark, not as a layer that got infinitely fast.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence


class TracerError(RuntimeError):
    """A traced name is missing or not callable."""


@dataclass(frozen=True)
class Span:
    """One finished call."""

    name: str
    start: float
    end: float
    self_s: float
    ctx: dict
    #: No enclosing span has the same name (a recursive name's total
    #: time is the sum over its outermost calls only).
    outermost: bool = True

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to wrap.

    ``attr`` is ``"function"``, ``"Class.method"``, or ``"module.function"``
    for a module imported into ``module``'s namespace (``copy.deepcopy`` in
    the compiler pipeline): the latter is patched through a shadow object so
    only that importer sees the wrapper — patching the shared module would
    also wrap the function's own recursive calls.

    ``attrs(args, kwargs)`` returns context for the span and its
    descendants; ``observe(tracer, result)`` records counters from the
    return value.
    """

    module: str
    attr: str
    name: str
    attrs: Optional[Callable[[tuple, dict], dict]] = None
    observe: Optional[Callable[["Tracer", Any], None]] = None


class Tracer:
    """Collects spans and counters in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        # Open frames: [name, start, child seconds, ctx].
        self._stack: list[list] = []

    def enter(self, name: str, attrs: Optional[dict] = None) -> None:
        ctx = dict(self._stack[-1][3]) if self._stack else {}
        if attrs:
            ctx.update(attrs)
        self._stack.append([name, self.clock(), 0.0, ctx])

    def exit(self) -> None:
        """Close the innermost span."""
        end = self.clock()
        name, start, child_s, ctx = self._stack.pop()
        duration = end - start
        outermost = all(frame[0] != name for frame in self._stack)
        self.spans.append(
            Span(name, start, end, duration - child_s, ctx, outermost)
        )
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        self.enter(name, attrs)
        try:
            yield
        finally:
            self.exit()

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(
                target.name, target.attrs(args, kwargs) if target.attrs else None
            )
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if target.observe is not None:
                target.observe(tracer, result)
            return result

        return traced

    # ------------------------------------------------------------ summaries
    def by_name(self) -> dict[str, dict]:
        """``name -> {calls, total_s, self_s}``."""
        out: dict[str, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_s
            if span.outermost:
                row["total_s"] += span.duration
        return out

    def self_seconds(self, names: Sequence[str], **where: Any) -> float:
        """Summed self time of the named spans whose context matches."""
        wanted = set(names)
        return sum(
            s.self_s
            for s in self.spans
            if s.name in wanted and all(s.ctx.get(k) == v for k, v in where.items())
        )

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (loadable in Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "e2e benchmark (traced serial run)"}},
        ]
        for s in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((s.start - origin) * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"self_us": round(s.self_s * 1e6, 3),
                             **{k: str(v) for k, v in s.ctx.items()}},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _resolve(target: Target) -> tuple[Any, str, Callable]:
    """``(owner, attr, original)``: ``setattr(owner, attr, ...)`` installs."""
    try:
        module = importlib.import_module(target.module)
    except ImportError as error:
        raise TracerError(f"cannot trace {target.module}: {error}") from None
    head, _, leaf = target.attr.rpartition(".")
    where = f"{target.module}.{target.attr}"
    if not head:
        owner, attr = module, leaf
        original = getattr(module, leaf, None)
    else:
        holder = getattr(module, head, None)
        if holder is None:
            raise TracerError(f"cannot trace {where}: {target.module} has no {head!r}")
        if isinstance(holder, types.ModuleType):
            original = getattr(holder, leaf, None)
            owner, attr = module, head
        else:
            # Only methods the class defines itself: patching an inherited
            # one would shadow it for this class alone.
            owner, attr = holder, leaf
            original = holder.__dict__.get(leaf)
    if not callable(original):
        raise TracerError(
            f"cannot trace {where}: the name is missing or not callable; "
            "update the benchmark's layer map to the program's new name "
            "rather than report the layer as zero"
        )
    return owner, attr, original


class _Shadow:
    """Stands in for a module inside one importer's namespace."""

    def __init__(self, module: types.ModuleType, **overrides: Callable) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


@contextmanager
def installed(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore."""
    patches: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr, original = _resolve(target)
            restore = getattr(owner, attr)
            wrapped = tracer.wrap(target, original)
            if isinstance(restore, types.ModuleType):
                replacement: Any = _Shadow(restore, **{target.attr.rpartition(".")[2]: wrapped})
            else:
                replacement = wrapped
            patches.append((owner, attr, restore))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, restore in reversed(patches):
            setattr(owner, attr, restore)
