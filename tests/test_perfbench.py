"""The benchmark's tracer must still find every function it times."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_self_test():
    # read-only: checks the traced bindings, BENCHMARK.json and the tracer
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                           "--self-test"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
