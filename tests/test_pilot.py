"""scripts/run_pilot.py reproduces the deterministic pinned constants."""

import os
import subprocess
import sys
from pathlib import Path

from rmflab import pinned

ROOT = Path(__file__).resolve().parents[1]


def test_mertens_pass_prints_pinned_block():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pilot.py"), "--only", "mertens"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    block = proc.stdout.split("--- paste into src/rmflab/pinned.py ---\n", 1)[1]
    assert block.splitlines() == [
        f"MERTENS_1E6_CHANGES = {pinned.MERTENS_1E6_CHANGES!r}",
        f"MERTENS_1E6_FINAL = {pinned.MERTENS_1E6_FINAL!r}",
    ]
