"""The benchmark's own self-check (`perfbench/smoke.py`) as a tier-1 test:
a change that breaks the agreement between the benchmark's oracle and the
program, or stops a workload from running, fails here before any
benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_benchmark_smoke_check_passes():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    smoke = ROOT / "perfbench" / "smoke.py"
    proc = subprocess.run([sys.executable, str(smoke)], capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
