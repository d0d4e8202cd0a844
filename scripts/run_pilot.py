#!/usr/bin/env python3
"""Regenerate the pilot-pinned thresholds in src/rmflab/pinned.py.

Runs the threshold-defining experiments of acceptance criteria 6 and 7 --
the same definitions the gate uses -- at PILOT_SEED and prints a block of
constants to paste into pinned.py.  The sign-change probability pass is
the heavy one (the x = 1e5 interval walks to ~3e8): about a minute on
two cores.

Usage: python scripts/run_pilot.py [--workers K] [--only signprob|avgv|mertens]
"""

import argparse
import math
import time

from rmflab.acceptance import (
    SIGNPROB_N,
    SIGNPROB_XS,
    avg_v_grid,
    avg_v_plan,
    avg_v_scale,
    signprob_plan,
)
from rmflab.cli import positive_int
from rmflab.montecarlo import estimate_sign_change_prob, expected_v_table
from rmflab.pinned import PILOT_SEED
from rmflab.sieve import mertens_trace


def pilot_signprob(workers: int) -> dict:
    plan = signprob_plan(PILOT_SEED, workers)
    points = {}
    for x in SIGNPROB_XS:
        t0 = time.time()
        est = estimate_sign_change_prob(plan, x, SIGNPROB_N)
        points[x] = (est.point, est.se)
        print(f"  signprob x={x}: {est.point:.4f} (se {est.se:.4f}) in {time.time()-t0:.0f}s")
    return points


def pilot_avg_v(workers: int) -> dict:
    xs = avg_v_grid()
    table = expected_v_table(avg_v_plan(PILOT_SEED, workers), xs)
    ratios = {}
    for x in xs:
        ratios[x] = table[x].point * avg_v_scale(x)
        print(f"  avg-v x={x:.4g}: EV={table[x].point:.3f} ratio={ratios[x]:.4f}")
    return ratios


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workers", type=positive_int, default=2)
    ap.add_argument("--only", choices=("signprob", "avgv", "mertens"), default=None)
    args = ap.parse_args()

    out = {}
    if args.only in (None, "mertens"):
        print("mertens census to 1e6 ...")
        tr = mertens_trace(10**6)
        out["MERTENS_1E6_CHANGES"] = tr.sign_change_count
        out["MERTENS_1E6_FINAL"] = tr.final_value
        print(f"  changes={tr.sign_change_count} final={tr.final_value}")
    if args.only in (None, "avgv"):
        print("averaged-V ratios on the x_ell grid ...")
        ratios = pilot_avg_v(args.workers)
        kappa = min(ratios.values())
        out["KAPPA_AVG_V"] = round(kappa, 6)
        out["AVG_V_PILOT_RATIOS"] = {f"{x:.6g}": round(r, 6) for x, r in ratios.items()}
    if args.only in (None, "signprob"):
        print("local sign-change probabilities (heavy) ...")
        points = pilot_signprob(args.workers)
        # a 4-sigma test of a rerun's p against the pilot's at the same x: the
        # difference of two independent estimates has se sqrt(2) se_x
        theta = min(p - 4.0 * math.sqrt(2.0) * se for p, se in points.values())
        out["THETA_SIGNPROB"] = round(theta, 6)
        out["SIGNPROB_PILOT_POINTS"] = {
            str(x): (round(p, 6), round(se, 6)) for x, (p, se) in points.items()
        }

    print("\n--- paste into src/rmflab/pinned.py ---")
    for key, val in out.items():
        print(f"{key} = {val!r}")


if __name__ == "__main__":
    main()
