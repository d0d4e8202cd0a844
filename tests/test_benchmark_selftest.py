import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    # every workload at quick sizes, traced and untraced: a moved plan count
    # or a broken invariant fails here before a benchmark run sees it
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
