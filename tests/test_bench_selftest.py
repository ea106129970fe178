"""The benchmark's own self-test, run as a child process.

`perfbench/selftest.py` runs every workload on a few cheap jobs and checks
each job against its expected result (the construct jobs check the exact
vol^2 against l^(2(m-1)) * (n+1)) and every metric BENCHMARK.json names.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test passed" in proc.stdout
