"""The benchmark's three workloads: inputs, timed operations, checks and plans.

Each workload is a list of operations.  An operation is one estimator or
trace call of the public ``rmflab`` API; it fails if it raises or if its
result fails a correctness check.  Checks run after the timed body:

* at the default seed and full size, a SHA-256 digest of each operation's
  serialised result must equal the digest recorded in ``workloads.json``
  (estimates with 17 significant digits, traces as exact integers), which
  pins bit-identical outputs;
* at any seed, invariants that hold for every sample of the walk.

``plan_counts`` derives the exact work of a workload from its sizes alone,
so the traced run can assert that the layers did exactly that work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Any, Callable

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
DEFAULT_SEED: int = SPEC["default_seed"]

# M(10^k), the Mertens function at powers of ten (OEIS A084237).
MERTENS_AT = {10**5: -48, 10**6: 212, 10**7: 1037, 10**8: 1928}
# First terms of the Mian-Chowla sequence (OEIS A005282).
MIAN_CHOWLA_PREFIX = (1, 2, 4, 8, 13, 21, 31, 45, 66, 81)
# Segment length the engine and the Mertens walker use for a walk to x.
MIN_SEGMENT = 1 << 20


@dataclass
class Op:
    """One timed call plus the checks and serialisation of its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    serialise: Callable[[Any], str]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _segments(x_end: int) -> int:
    return -(-x_end // max(MIN_SEGMENT, isqrt(x_end)))


def _prime_sieve_size(x_end: int) -> int:
    return max(2, isqrt(x_end)) + 1


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _serialise_estimate(e) -> str:
    return ",".join([_fmt(e.point), _fmt(e.ci_lo), _fmt(e.ci_hi), _fmt(e.se), str(e.n_samples)])


def _serialise_table(table: dict) -> str:
    return ";".join(f"{k!r}={_serialise_estimate(table[k])}" for k in sorted(table))


def _serialise_trace(t) -> str:
    return f"{t.x_end},{int(t.final_value)},{t.sign_change_count},{list(t.checkpoint_values)}"


def _bracket(e) -> list[str]:
    if e.ci_lo <= e.point <= e.ci_hi:
        return []
    return [f"interval [{e.ci_lo}, {e.ci_hi}] does not contain {e.point}"]


# --- signprob -------------------------------------------------------------


def _signprob_ops(rmflab, seed: int, size: dict, workers: int) -> list[Op]:
    mc = rmflab.montecarlo
    plan = mc.ExperimentPlan(
        master_seed=seed,
        samples=size["samples"],
        model=rmflab.models.ModelSpec("rmf"),
        workers=workers,
        budget=size["budget"],
        n_boot=size["n_boot"],
    )
    samples = size["samples"]

    def check(e) -> list[str]:
        errs = _bracket(e)
        k = round(e.point * samples)
        if not (0.0 <= e.point <= 1.0) or abs(e.point * samples - k) > 1e-9:
            errs.append(f"point {e.point} is not a multiple of 1/{samples} in [0, 1]")
        return errs

    return [
        Op(
            f"signprob@x={x:g}",
            lambda x=x: mc.estimate_sign_change_prob(plan, x, size["N"]),
            check,
            _serialise_estimate,
        )
        for x in size["x"]
    ]


def _signprob_plan(size: dict) -> dict:
    counts = _zero_counts()
    for x in size["x"]:
        a = math.floor(x)
        b = math.floor(math.exp(size["N"]) * x)
        if b <= a:
            continue
        counts["lane_steps"] += size["samples"] * b
        counts["engine.lane_steps"] += size["samples"] * b
        counts["engine.segments"] += _segments(b)
        counts["sieve.integers"] += b + _prime_sieve_size(b)
        counts["montecarlo.resamples"] += size["n_boot"] if size["samples"] > 1 else 0
    return counts


# --- trace ----------------------------------------------------------------


def _trace_ops(rmflab, seed: int, size: dict, workers: int) -> list[Op]:
    x = size["x"]
    x_cross = size["cross_check_x"]

    def check_rmf(t) -> list[str]:
        errs = []
        q = rmflab.sieve.squarefree_count(x)
        if (t.final_value - q) % 2 or abs(t.final_value) > q:
            errs.append(f"M({x}) = {t.final_value} breaks parity/size against Q = {q}")
        minus = rmflab.rmf.rmf_trace(rmflab.rmf.SignOracle(seed, hook="minus"), x_cross)
        ref = rmflab.sieve.mertens_trace(x_cross)
        got = (minus.final_value, minus.sign_change_count)
        want = (ref.final_value, ref.sign_change_count)
        if got != want or ref.final_value != MERTENS_AT[x_cross]:
            errs.append(f"all-minus walk {got} != Mertens census {want} at {x_cross}")
        return errs

    def check_mertens(t) -> list[str]:
        if t.final_value == MERTENS_AT[x]:
            return []
        return [f"M({x}) = {t.final_value}, expected {MERTENS_AT[x]}"]

    return [
        Op(
            f"rmf_trace@x={x}",
            lambda: rmflab.rmf.rmf_trace(rmflab.rmf.SignOracle(seed), x, workers=workers),
            check_rmf,
            _serialise_trace,
        ),
        Op(f"mertens_trace@x={x}", lambda: rmflab.sieve.mertens_trace(x), check_mertens, _serialise_trace),
    ]


def _trace_plan(size: dict) -> dict:
    x = size["x"]
    counts = _zero_counts()
    counts["lane_steps"] = 2 * x  # one sampled walk plus the Mobius walk
    counts["engine.lane_steps"] = x
    counts["engine.segments"] = _segments(x)
    counts["sieve.integers"] = 2 * (x + _prime_sieve_size(x))
    return counts


# --- comparison -----------------------------------------------------------


def _comparison_ops(rmflab, seed: int, size: dict, workers: int) -> list[Op]:
    mc = rmflab.montecarlo
    ModelSpec = rmflab.models.ModelSpec

    def plan(model: str, part: dict):
        return mc.ExperimentPlan(
            master_seed=seed,
            samples=part["samples"],
            model=ModelSpec(model),
            workers=workers,
            n_boot=size["n_boot"],
        )

    harmonic, martingale, sidon = size["harmonic"], size["martingale"], size["sidon"]
    harmonic_x = [2.0**k for k in range(harmonic["log2_x"][0], harmonic["log2_x"][1] + 1)]

    def check_v(table) -> list[str]:
        errs = [e for x in sorted(table) for e in _bracket(table[x])]
        points = [table[x].point for x in sorted(table)]
        if points[0] < 0 or any(b < a for a, b in zip(points, points[1:])):
            errs.append(f"E V(x) is negative or decreasing in x: {points}")
        return errs

    def check_sidon(table) -> list[str]:
        errs = [e for key in sorted(table) for e in _bracket(table[key])]
        for x in sidon["x"]:
            norms = [table[(x, q)].point ** (1.0 / q) for q in sorted(sidon["q"])]
            if any(b < a * (1 - 1e-12) for a, b in zip(norms, norms[1:])):
                errs.append(f"L^q norms of M({x}) decrease in q: {norms}")
        terms = rmflab.models.mian_chowla(max(sidon["x"])).elements
        if terms[: len(MIAN_CHOWLA_PREFIX)] != MIAN_CHOWLA_PREFIX:
            errs.append(f"mian_chowla starts {terms[:10]}, not A005282")
        diffs = [b - a for i, a in enumerate(terms) for b in terms[i + 1 :]]
        if len(set(diffs)) != len(diffs):
            errs.append("mian_chowla differences are not pairwise distinct")
        return errs

    return [
        Op(
            "expected_v_table@harmonic_rademacher",
            lambda: mc.expected_v_table(plan("harmonic_rademacher", harmonic), harmonic_x),
            check_v,
            _serialise_table,
        ),
        Op(
            "expected_v_table@bounded_martingale",
            lambda: mc.expected_v_table(plan("bounded_martingale", martingale), martingale["x"]),
            check_v,
            _serialise_table,
        ),
        Op(
            "moment_table@sidon_cosine",
            lambda: mc.moment_table(plan("sidon_cosine", sidon), sidon["x"], sidon["q"]),
            check_sidon,
            _serialise_table,
        ),
    ]


def _comparison_plan(size: dict) -> dict:
    harmonic, martingale, sidon = size["harmonic"], size["martingale"], size["sidon"]
    n_boot = size["n_boot"]
    x_h = 2 ** harmonic["log2_x"][1]
    counts = _zero_counts()
    counts["engine.lane_steps"] = harmonic["samples"] * x_h
    counts["engine.segments"] = _segments(x_h)
    counts["lane_steps"] = (
        harmonic["samples"] * x_h
        + martingale["samples"] * int(max(martingale["x"]))
        + sidon["samples"] * int(max(sidon["x"]))
    )
    n_estimates = (
        harmonic["log2_x"][1] - harmonic["log2_x"][0] + 1
        + len(martingale["x"])
        + len(sidon["x"]) * len(sidon["q"])
    )
    counts["montecarlo.resamples"] = n_boot * n_estimates
    return counts


# --- registry -------------------------------------------------------------


def _zero_counts() -> dict:
    return dict.fromkeys(
        ["lane_steps", "engine.lane_steps", "engine.segments", "sieve.integers", "montecarlo.resamples"], 0
    )


_OPS = {"signprob": _signprob_ops, "trace": _trace_ops, "comparison": _comparison_ops}
_PLANS = {"signprob": _signprob_plan, "trace": _trace_plan, "comparison": _comparison_plan}
NAMES = tuple(_OPS)


def size_of(workload: str, quick: bool) -> dict:
    return SPEC["workloads"][workload]["quick" if quick else "full"]


def ops(rmflab, workload: str, seed: int, quick: bool, workers: int) -> list[Op]:
    return _OPS[workload](rmflab, seed, size_of(workload, quick), workers)


def plan_counts(workload: str, quick: bool) -> dict:
    """Exact work of one pass over the workload: lane-steps and layer counts.

    ``lane_steps`` counts every sample x integer step of every walk;
    the other keys are the per-layer counts the traced run observes at
    ``workers=1``.
    """
    return _PLANS[workload](size_of(workload, quick))


def expected_digests(workload: str, seed: int, quick: bool) -> dict | None:
    if quick or seed != DEFAULT_SEED:
        return None
    return SPEC["workloads"][workload].get("digests")
