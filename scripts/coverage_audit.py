#!/usr/bin/env python3
"""Audit how often the estimators' 95% bootstrap intervals cover exact values.

Runs every check once per seed, at seeds 1000, 1001, ..., and counts the
runs whose percentile interval [ci_lo, ci_hi] holds the exact value.  The
checks and their exact values:

* iid ``expected_v_table`` at x = 16 and 64, against the zero-skip closed
  form E V(x) = 1/2 sum_{k=1}^{floor((x-1)/2)} C(2k, k)/4^k (Feller,
  Vol. 1, Ch. III): a change can only complete one step after a visit to
  0, and then does so with probability 1/2;
* rmf ``moment_table`` at q = 2, x = 60, against E M(60)^2 = Q(60) = 37,
  the squarefree count (``sieve.squarefree_count``): E f(n) f(m) is 1
  when n = m is squarefree and 0 otherwise.

Usage:

    python scripts/coverage_audit.py --seeds K --samples S --out FILE.json

The JSON report holds the seeds, samples and bootstrap resamples, and for
each check its exact value, the runs that covered it, the coverage and a
95% Wilson score interval for the coverage, so a coverage whose interval
excludes 0.95 flags a miscalibrated estimator.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from fractions import Fraction
from math import comb

from rmflab.cli import positive_int
from rmflab.models import ModelSpec
from rmflab.montecarlo import EstimateWithCI, ExperimentPlan, expected_v_table, moment_table
from rmflab.sieve import squarefree_count

FIRST_SEED = 1000
N_BOOT = 1000
LEVEL = 0.95
Z = 1.959963984540054  # the standard normal's 97.5% quantile
IID_XS = (16, 64)
RMF_X, RMF_Q = 60, 2.0


def iid_expected_v(x: int) -> Fraction:
    """E V(x) of the simple +-1 walk under the zero-skip policy, exactly."""
    return Fraction(1, 2) * sum(Fraction(comb(2 * k, k), 4**k) for k in range(1, (x - 1) // 2 + 1))


def wilson_interval(covered: int, runs: int) -> tuple[float, float]:
    """The 95% Wilson score interval for a binomial proportion covered/runs."""
    p = covered / runs
    scale = 1.0 + Z * Z / runs
    centre = (p + Z * Z / (2 * runs)) / scale
    half = Z * math.sqrt(p * (1.0 - p) / runs + Z * Z / (4 * runs * runs)) / scale
    return max(0.0, centre - half), min(1.0, centre + half)


def run_seed(seed: int, samples: int) -> dict[str, EstimateWithCI]:
    """Each check's estimate at one seed."""
    plan = ExperimentPlan(seed, samples, ModelSpec("iid_rademacher"), n_boot=N_BOOT)
    iid = expected_v_table(plan, IID_XS)
    out = {f"iid E V({x})": iid[x] for x in IID_XS}
    rmf = moment_table(ExperimentPlan(seed, samples, n_boot=N_BOOT), [RMF_X], [RMF_Q])
    out[f"rmf E M({RMF_X})^2"] = rmf[(RMF_X, RMF_Q)]
    return out


def audit(seeds: int, samples: int) -> dict:
    exact = {f"iid E V({x})": float(iid_expected_v(x)) for x in IID_XS}
    exact[f"rmf E M({RMF_X})^2"] = float(squarefree_count(RMF_X))
    seed_list = list(range(FIRST_SEED, FIRST_SEED + seeds))
    covered = dict.fromkeys(exact, 0)
    t0 = time.perf_counter()
    for seed in seed_list:
        for name, est in run_seed(seed, samples).items():
            covered[name] += est.ci_lo <= exact[name] <= est.ci_hi
    checks = [
        {
            "name": name,
            "exact": value,
            "covered": covered[name],
            "runs": seeds,
            "coverage": covered[name] / seeds,
            "coverage_interval": list(wilson_interval(covered[name], seeds)),
        }
        for name, value in exact.items()
    ]
    return {
        "level": LEVEL,
        "seeds": seed_list,
        "samples": samples,
        "n_boot": N_BOOT,
        "checks": checks,
        "seconds": time.perf_counter() - t0,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=positive_int, required=True, help="runs, at seeds 1000, 1001, ...")
    p.add_argument("--samples", type=positive_int, required=True, help="samples per run")
    p.add_argument("--out", required=True, help="JSON report path")
    args = p.parse_args(argv)
    report = audit(args.seeds, args.samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for check in report["checks"]:
        lo, hi = check["coverage_interval"]
        print(f"{check['name']}: covered {check['covered']}/{check['runs']} "
              f"({check['coverage']:.3f}, 95% interval [{lo:.3f}, {hi:.3f}])")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
