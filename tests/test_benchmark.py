"""The benchmark's reduced smoke test as part of the test run.

`benchmark/smoke_check.py` lives outside ``tests/``, so pytest does not
collect it; this runs it as a script from the repository root, the way its
docstring says to.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "benchmark/smoke_check.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
