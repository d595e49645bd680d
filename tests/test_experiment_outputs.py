"""EXPERIMENTS.md's expected-output blocks are what their commands print.

Each ``python -m repro ...`` command that EXPERIMENTS.md follows with an
"Expected output" block (or quotes in a ``console`` block after a ``$``
prompt) is run in a fresh interpreter, and its stdout must equal the
block byte for byte, trailing newlines aside.  The cheap commands run
here; the two at the committed 120 000-instruction length (E2's
``table2`` and E9's ``cycle-time``) run with ``--jobs 2`` when
``REPRO_EXPERIMENTS_FULL=1`` is set, which the CI ``experiments-outputs``
job does.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Commands cheap enough for every test run (seconds on a 2-vCPU VM).
CHEAP = {
    "figure6",
    "ablations --benchmark su2cor --trace-length 7500 --sweeps width",
    "explore --driver grid --max-clusters 2 --benchmarks compress ora "
    "--trace-length 2000 --quiet",
    "ablations --benchmark compress --trace-length 7500 --sweeps buffers "
    "threshold partitioner assignment",
}
#: Commands at the committed trace length, run only when asked (about
#: half a minute each with two workers).
FULL = {"table2", "cycle-time --trace-length 120000"}
FULL_ENV = "REPRO_EXPERIMENTS_FULL"

_FENCE = re.compile(r"^```(\w*)\s*$")


def _blocks(text: str):
    """``(language, lines, prose before the block)`` for every fenced block."""
    blocks, prose, block, language = [], [], None, ""
    for line in text.splitlines():
        fence = _FENCE.match(line)
        if block is None:
            if fence:
                block, language = [], fence.group(1)
            else:
                prose.append(line)
        elif fence:
            blocks.append((language, block, "\n".join(prose)))
            block, prose = None, []
        else:
            block.append(line)
    return blocks


def expected_outputs() -> dict[str, str]:
    """Documented command (arguments after ``python -m repro``) -> output."""
    found = {}
    blocks = _blocks((ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8"))
    for (language, lines, _), following in zip(blocks, blocks[1:] + [None]):
        if language == "console" and lines and lines[0].startswith("$ python -m repro"):
            words = []
            while True:
                line = lines.pop(0).removeprefix("$ ")
                words.append(line.rstrip("\\").strip())
                if not line.endswith("\\"):
                    break
            found[" ".join(words).removeprefix("python -m repro ")] = "\n".join(lines)
        elif (
            language == "bash"
            and len(lines) == 1
            and lines[0].startswith("python -m repro")
            and following is not None
            and following[0] == ""
            and "Expected output" in following[2].split("\n## ")[0]
        ):
            found[lines[0].removeprefix("python -m repro ")] = "\n".join(following[1])
    return found


def run_documented(command: str, *extra: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-m", "repro", *shlex.split(command), *extra],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return completed.stdout


def test_every_expected_output_is_checked():
    assert set(expected_outputs()) == CHEAP | FULL


@pytest.mark.parametrize("command", sorted(CHEAP))
def test_cheap_command_prints_its_expected_output(command):
    assert run_documented(command).rstrip("\n") == expected_outputs()[command]


@pytest.mark.skipif(
    not os.environ.get(FULL_ENV), reason=f"set {FULL_ENV}=1 (two ~30 s sweeps)"
)
@pytest.mark.parametrize("command", sorted(FULL))
def test_full_length_command_prints_its_expected_output(command):
    stdout = run_documented(command, "--jobs", "2")
    assert stdout.rstrip("\n") == expected_outputs()[command]
