"""Quick self-test of the benchmark.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload once at the reduced sizes of ``workloads.json``, with
tracing off and on, and checks that the result line has exactly the keys
the benchmark contract names, that every metric of ``BENCHMARK.json`` is
printed with its unit, and that no operation failed.  It then copies
``BENCHMARK.json`` and ``perfbench/`` alone into ``.perfbench/bare`` and
checks that the benchmark refuses to run there without printing a result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    done = _run(ROOT, "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                "--seconds", "1", "--trace", str(trace), "--quick")
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"metrics/units differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(wanted.items()))}")
    for name, m in result.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append(f"{name} value {m.get('value')!r} is not a number")
    return problems


def check_bare() -> list[str]:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = _run(bare, "--workload", workloads.NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"benchmark ran without the program: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        print("BENCHMARK.json workloads differ from perfbench/workloads.py", file=sys.stderr)
        return 1
    failures = 0
    for workload in workloads.NAMES:
        for trace in (0, 1):
            problems = check_result(bench, workload, trace)
            status = "ok" if not problems else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            for problem in problems:
                print(f"  {problem}")
            failures += bool(problems)
    problems = check_bare()
    print(f"bare directory refused: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
