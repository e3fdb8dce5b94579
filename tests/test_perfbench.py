"""The benchmark's output checks against the current CLI.

perfbench/selftest.py runs the CLI on small instances and requires every
check to accept the real output and reject corrupted copies of it, so a
change to the CLI output that a benchmark check would refuse fails here,
before the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_checks_accept_the_cli_output():
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
