"""Put the benchmark's modules and the repro package on the import path."""

import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
for path in (str(E2E), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def bench():
    """Run ``benchmarks/e2e/run.py`` of the checkout at ``cwd``."""

    def run(*args, cwd=ROOT, timeout=240):
        return subprocess.run(
            [sys.executable, str(Path(cwd) / "benchmarks" / "e2e" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=timeout,
        )

    return run
