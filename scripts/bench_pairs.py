#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Runs ``perfbench/run.py --trace 0`` from a parent checkout and a changed
checkout, one run of each per pair, the parent first in even pairs and
the change first in odd ones, for ten pairs per workload and each run as
long as ``run_seconds`` of ``BENCHMARK.json``.  It writes a
``BENCH_<n>.json`` report: for every workload and end-to-end metric, both
sides' runs with their median and quartiles, the change/parent ratio of
the medians, the pairs the change won, the relative worsening and whether
it stays within the metric's bound.  ``--claim`` adds a verdict on one
claimed gain.  The benchmark itself is not modified.

Usage:

    python scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --out BENCH_7.json [--claim trace:wall_s:0.15]

A claim ``WORKLOAD:METRIC:GAIN`` is met when the change wins at least 9
of the 10 pairs, its median is better than the parent's by more than the
parent's interquartile range, and by at least the fraction GAIN.

The report also records each checkout's line count of ``src/rmflab``, the
git commit its runs report and whether its tree has uncommitted changes,
since a run from a changed tree reports the commit it started from (both
null for a checkout without ``.git``), and ``benchmark_identical``: whether
both checkouts hold the same ``BENCHMARK.json`` and ``perfbench/`` files,
since the workloads and bounds are read from the change side only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10

def run_once(checkout: Path, workload: str, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py`` run; returns its environment and result objects."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(
            f"{checkout}: {workload} run exited with {done.returncode}: {done.stderr.strip()}"
        )
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


def git_dirty(checkout: Path) -> bool | None:
    """Whether ``git status --porcelain`` lists a change; None without ``.git``."""
    if not (checkout / ".git").exists():
        return None
    done = subprocess.run(["git", "status", "--porcelain"], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return bool(done.stdout.strip())


def benchmark_digest(checkout: Path) -> str:
    """SHA-256 over ``BENCHMARK.json`` and the files under ``perfbench/``, by sorted path.

    Each file adds its relative path, its length and its bytes;
    ``__pycache__`` directories are skipped.
    """
    files = [
        path.relative_to(checkout) for path in (checkout / "perfbench").rglob("*")
        if path.is_file() and "__pycache__" not in path.relative_to(checkout).parts
    ]
    digest = hashlib.sha256()
    for rel in [Path("BENCHMARK.json"), *sorted(files)]:
        data = (checkout / rel).read_bytes()
        digest.update(rel.as_posix().encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def source_lines(checkout: Path) -> int:
    """Lines in the checkout's ``src/rmflab/*.py``."""
    return sum(len(path.read_text().splitlines())
               for path in (checkout / "src" / "rmflab").glob("*.py"))


def summary(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's report entry from the paired runs of both sides."""
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"]
    lower = better == "lower"
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(parent, change))
    worsening = ratio - 1 if lower else 1 - ratio
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "ratio": ratio,
        "wins": f"{wins}/{len(parent)}",
        "relative_worsening": worsening,
        "within_bound": worsening <= bound,
        "parent_iqr": p["q3"] - p["q1"],
    }


def claim_verdict(entry: dict, workload: str, metric: str, gain: float) -> dict:
    wins, pairs = (int(v) for v in entry["wins"].split("/"))
    p, c = entry["parent"]["median"], entry["change"]["median"]
    gap = p - c if entry["better"] == "lower" else c - p
    met = 10 * wins >= 9 * pairs and gap > entry["parent_iqr"] and gap >= gain * p
    return {
        "workload": workload,
        "metric": metric,
        "parent_median": p,
        "change_median": c,
        "wins": entry["wins"],
        "parent_iqr": entry["parent_iqr"],
        "min_gain": gain,
        "gain": gap / p,
        "met": met,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", default="", help="WORKLOAD:METRIC:GAIN")
    ap.add_argument("--description", default="", help="prepended to the generated description")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    dirty = {side: git_dirty(path) for side, path in sides.items()}

    report_workloads = {}
    commits = {}
    for workload in names:
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        correct = True
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                environment, result = run_once(sides[side], workload, seconds)
                commits.setdefault(side, environment["git_commit"])
                correct &= bool(result["correct"]) and result["failed"] == 0
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            wall = [values[s]["wall_s"][-1] for s in sides]
            print(f"{workload} pair {k + 1}/{PAIRS}: wall_s parent {wall[0]:.3f} "
                  f"change {wall[1]:.3f}", file=sys.stderr)
        report_workloads[workload] = {
            "all_correct": correct,
            "metrics": {
                m["name"]: compare(
                    values["parent"][m["name"]], values["change"][m["name"]],
                    m["better"], m["bound"],
                )
                for m in metrics
            },
        }

    description = (
        f"perfbench/run.py --seconds {seconds:g} --trace 0 at the default seed, "
        f"{PAIRS} alternating pairs per workload (parent first in even pairs), "
        f"Python {platform.python_version()} on {platform.system()}. Each run's value is "
        "the run's own median over its passes. wins = pairs where the change is better; "
        "ratio = change median / parent median."
    )
    lines = {side: source_lines(path) for side, path in sides.items()}
    report = {
        "description": f"{args.description} {description}".strip(),
        "src_rmflab_lines": {**lines, "delta": lines["change"] - lines["parent"]},
        "commits": commits,
        "dirty": dirty,
        "benchmark_identical": benchmark_digest(sides["parent"]) == benchmark_digest(sides["change"]),
        "workloads": report_workloads,
    }
    if args.claim:
        workload, metric, gain = args.claim.split(":")
        entry = report_workloads[workload]["metrics"][metric]
        report["claim"] = claim_verdict(entry, workload, metric, float(gain))
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = [w for w, r in report_workloads.items() if not r["all_correct"]]
    out_of_bound = [
        f"{w}.{m}" for w, r in report_workloads.items()
        for m, e in r["metrics"].items() if not e["within_bound"]
    ]
    print(json.dumps({"failed": failed, "out_of_bound": out_of_bound,
                      "claim": report.get("claim")}), file=sys.stderr)
    return 0 if not failed and not out_of_bound else 1


if __name__ == "__main__":
    sys.exit(main())
