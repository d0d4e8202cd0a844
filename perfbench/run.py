"""rmflab benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {signprob,trace,comparison}
        --seed N --seconds S --trace {0,1} [--quick]

Every pass over a workload runs in a fresh child process (``child.py``), so
set-up time and peak RSS belong to that workload alone.  The run repeats
passes until ``--seconds`` have elapsed (at least one) and reports medians.

``--trace 0`` reports the end-to-end metrics, each the median over the
passes: ``wall_s``, ``lane_steps_per_s``, ``peak_rss_mb`` and ``setup_s``.
``--trace 1`` runs pairs of passes at ``workers=1``, so that every span
lands in one process: one untraced pass and one with every layer boundary
wrapped (``tracer.py``).  It reports the per-layer metrics, the tracing
overhead and ``failed_ops``, and asserts that the layers did exactly the
work the workload's plan implies.  ``--quick`` uses the reduced sizes of
``workloads.json``.

Standard output ends with an ``{"environment": ...}`` line and then the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Spans
and per-pass details go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 160.0  # no pass runs past this, so a run ends within 180 s
TRACED_WORKERS = 1
CHECKED_COUNTS = ("engine.lane_steps", "engine.segments", "sieve.integers", "montecarlo.resamples")

END_TO_END_UNITS = {"wall_s": "s", "lane_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    **{name: "s" for name in tracer.SELF_TIME_METRICS},
    **{name: "count" for name in tracer.COUNT_METRICS},
    "engine.lane_steps_per_s": "1/s",
    "trace.overhead_s": "s",
    "failed_ops": "fraction",
}


class PassFailed(RuntimeError):
    """A child process ended without a result."""


def _run_pass(args, workers: int, deadline: float, run_id: str = "") -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--workers", str(workers),
    ]
    if args.quick:
        cmd.append("--quick")
    if run_id:
        cmd += ["--run-id", run_id, "--spans", str(OUT_DIR / f"{run_id}.spans.jsonl")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("pass timed out") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["setup_done"] - start
    out["elapsed_s"] = time.monotonic() - start
    return out


def _repeat(args, run_pass, deadline: float) -> list:
    """Call ``run_pass(k)`` until ``--seconds`` have elapsed, at least once."""
    start = time.monotonic()
    passes = []
    longest = 0.0
    while True:
        t = time.monotonic()
        passes.append(run_pass(len(passes)))
        now = time.monotonic()
        longest = max(longest, now - t)
        if now - start >= args.seconds or now + longest > deadline:
            return passes


def _timed_run(args, spec: dict, deadline: float) -> tuple[dict, list]:
    passes = _repeat(args, lambda k: _run_pass(args, spec["workers"], deadline), deadline)
    lane_steps = workloads.plan_counts(args.workload, args.quick)["lane_steps"]
    metrics = {
        "wall_s": median(p["wall_s"] for p in passes),
        "lane_steps_per_s": median(lane_steps / p["wall_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "setup_s": median(p["setup_s"] for p in passes),
    }
    return metrics, passes


def _traced_run(args, deadline: float) -> tuple[dict, list, list[str]]:
    run_tag = f"{args.workload}-seed{args.seed}"

    def pair(k: int) -> tuple[dict, dict]:
        plain = _run_pass(args, TRACED_WORKERS, deadline)
        traced = _run_pass(args, TRACED_WORKERS, deadline, run_id=f"{run_tag}-pass{k}")
        return plain, traced

    pairs = _repeat(args, pair, deadline)
    layers = [traced["layers"] for _, traced in pairs]
    problems = []
    plan = workloads.plan_counts(args.workload, args.quick)
    for k, observed in enumerate(layers):
        for name in CHECKED_COUNTS:
            if observed[name] != plan[name]:
                problems.append(f"pass {k}: {name} observed {observed[name]}, plan {plan[name]}")
        for name in tracer.COUNT_METRICS:
            if observed[name] != layers[0][name]:
                problems.append(f"pass {k}: {name} = {observed[name]} differs from pass 0")
    metrics = {name: median(layer[name] for layer in layers) for name in tracer.SELF_TIME_METRICS}
    metrics.update({name: layers[0][name] for name in tracer.COUNT_METRICS})
    metrics["engine.lane_steps_per_s"] = median(layer["engine.lane_steps_per_s"] for layer in layers)
    metrics["trace.overhead_s"] = median(t["wall_s"] - p["wall_s"] for p, t in pairs)
    return metrics, [p for pair_ in pairs for p in pair_], problems


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rmflab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="reduced sizes (self-test)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rmflab" / "__init__.py").is_file():
        print(f"no rmflab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    spec = workloads.SPEC["workloads"][args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, passes, problems = _traced_run(args, deadline)
        else:
            metrics, passes = _timed_run(args, spec, deadline)
            problems = []
    except PassFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"work count mismatch: {problem}", file=sys.stderr)

    attempted = sum(p.get("attempted", 0) for p in passes)
    failed = sum(p.get("failed", 0) for p in passes)
    digests = {json.dumps(p["digests"], sort_keys=True) for p in passes if "digests" in p}
    if len(digests) > 1:
        problems.append("operation results differ between passes")
        print("operation results differ between passes", file=sys.stderr)
    if args.trace:
        metrics["failed_ops"] = failed / attempted
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    environment = {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        **passes[0]["versions"],
        "nproc": os.cpu_count(),
        "workers": TRACED_WORKERS if args.trace else spec["workers"],
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "run_s": time.monotonic() - start,
    }
    record = {"environment": environment, "passes": passes, "problems": problems, "result": result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
