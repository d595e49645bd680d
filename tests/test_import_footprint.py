"""Importing the simulator stack pulls in no numpy.

numpy once built the batched engine's trace columns; a list comprehension
is faster there, and the import alone cost every process ~0.15 s and
~12 MB.  A fresh interpreter keeps the check independent of whatever the
test session itself has imported.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro.experiments.table2
import repro.gym.drivers
import repro.perf.fingerprint
import repro.perf.parallel
import repro.uarch.engine
print("numpy" in sys.modules)
"""


def test_simulator_stack_does_not_import_numpy():
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(src=SRC)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"
