"""One workload pass in a fresh process: set up, run the timed body, check.

Usage (started by ``run.py``, one process per pass):

    python3 perfbench/child.py --workload NAME --seed N --workers K
        [--quick] [--run-id ID --spans PATH]

Set-up is importing numpy, scipy and the checkout's ``rmflab`` and building
the workload's inputs.  The timed body runs every operation once.  With
``--run-id`` the pass is traced: the layer boundaries are wrapped for the
body only, and the spans are written to ``--spans`` afterwards.  Peak RSS
is read right after the body; the checks run after that.  The last line of
standard output is one JSON object describing the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--run-id", default="", help="trace the pass under this run id")
    p.add_argument("--spans", default="")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import scipy

    import rmflab
    import tracer as tracing
    import workloads

    if not Path(rmflab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"rmflab imported from {rmflab.__file__}, not from the checkout", file=sys.stderr)
        return 2
    ops = workloads.ops(rmflab, args.workload, args.seed, args.quick, args.workers)
    setup_done = time.monotonic()
    out = {
        "setup_done": setup_done,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "rmflab": rmflab.__version__,
        },
    }
    tracer = None
    if args.run_id:
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer, rmflab)
    results: list = []
    op_seconds: dict[str, float] = {}
    errors: list[list[str]] = []

    def body() -> None:
        for op in ops:
            t = time.perf_counter()
            try:
                result = op.run() if tracer is None else tracer.span(f"op.{op.name}", op.run)
            except Exception:
                traceback.print_exc()
                result = None
            op_seconds[op.name] = time.perf_counter() - t
            results.append(result)

    t0 = time.perf_counter()
    if tracer is None:
        body()
    else:
        try:
            tracer.span("workload", body)
        finally:
            tracer.restore()
    wall = time.perf_counter() - t0
    peak_rss_mb = _peak_rss_mb()

    digests = workloads.expected_digests(args.workload, args.seed, args.quick)
    op_digests = {}
    for op, result in zip(ops, results):
        if result is None:
            errors.append([f"{op.name} raised"])
            continue
        try:
            errs = op.check(result)
            op_digests[op.name] = workloads.digest(op.serialise(result))
        except Exception as exc:
            traceback.print_exc()
            errs = [f"check raised {exc!r}"]
        if digests is not None and op_digests.get(op.name) != digests.get(op.name):
            errs.append(f"digest {op_digests.get(op.name)} != recorded {digests.get(op.name)}")
        errors.append([f"{op.name}: {e}" for e in errs])
    for errs in errors:
        for e in errs:
            print(f"check failed: {e}", file=sys.stderr)

    out.update(
        wall_s=wall,
        op_s=op_seconds,
        peak_rss_mb=peak_rss_mb,
        attempted=len(ops),
        failed=sum(1 for errs in errors if errs),
        digests=op_digests,
    )
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["n_spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
