"""Atomic, durable file writes shared by the resilience layer.

Every artifact that a crashed or killed process must never leave
half-written — run-journal sidecars, replay bundles, chaos health
reports, stats exports, gym trajectories and frontiers — goes through
one helper:
write to a temporary file in the target directory, flush, ``fsync``,
``os.replace`` over the destination, then ``fsync`` the directory so the
rename itself is durable.  A reader therefore sees either the old
complete file or the new complete file, never a torn one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Union

PathLike = Union[str, os.PathLike]


def fsync_directory(directory: PathLike) -> None:
    """Flush a directory's metadata (best effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - unusual fs without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dirs here
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Durably replace ``path`` with ``data`` (write-temp-fsync-rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_text(path: PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: PathLike, obj: Any) -> None:
    """Durably replace ``path`` with ``obj`` rendered as sorted JSON."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "fsync_directory",
]
