"""The benchmark harness against the current solver: perfbench wraps solver
functions by name and reads the fields of `run`'s result, so a renamed
function or a changed signature must fail here, not only in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "perfbench smoke test passed" in proc.stdout
