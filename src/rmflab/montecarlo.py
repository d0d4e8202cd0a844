"""Experiment engine: deterministic sampling plans, estimators, bootstrap CIs.

An :class:`ExperimentPlan` holds only what every walk and bootstrap of an
experiment shares: master seed, sample count, model, workers, step budget
and bootstrap resamples.  The values one estimate asks about (x, q, N,
epsilon, delta) are arguments of the estimator.

Every estimator follows the same discipline:

* it walks every sample once, through the one helper ``_walk`` (a call of
  :func:`models.collect_walks`, bit-reproducible for any worker count), to
  the largest position it reads, and takes its per-sample statistic from the
  columns :meth:`WalkResult.columns` gives for those positions;
* point estimates reduce the per-sample vector in sample-index order with
  compensated summation;
* confidence intervals are percentile bootstrap (default 1000 resamples)
  whose RNG is derived from the master seed plus a purpose string, so the
  same plan always yields the same interval.

The step-budget guardrail refuses experiments whose largest trace times
sample count exceeds the budget (default 1e9 steps, overridable per plan
or via the RMFLAB_BUDGET environment variable).  A budget below 1 is a
parameter error.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import signs
from .analysis import LambdaParams, check_event_params, forcing_events, lambda_exact
from .engine import DEFAULT_BUDGET, WalkResult
from .errors import ParameterError
from .models import ModelSpec, collect_walks
from .rmf import grid_positions

REGIME_EPSILON = 1.0 / 2000.0  # fixed small epsilon for the loglog regime proxy


def resolve_budget(budget: float | None) -> int:
    """The step budget: ``budget`` if given, else RMFLAB_BUDGET, else the default."""
    if budget is None:
        env = os.environ.get("RMFLAB_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(float(env))
        except (ValueError, OverflowError) as exc:
            raise ParameterError(f"RMFLAB_BUDGET must be a finite number, got {env!r}") from exc
    if budget < 1:
        raise ParameterError(f"step budget must be >= 1, got {budget}")
    return int(budget)


@dataclass(frozen=True)
class RegimeFlags:
    """Hypothesis-regime proxies; experiments warn, never refuse, on these."""

    n_small: bool  # N = o(log x) proxy: N <= log(x)/10
    loglog_ok: bool  # loglog x << N^{2-eps} proxy: loglog x <= N^{2-eps}


def regime_flags(x: float, N: int) -> RegimeFlags:
    log_x = math.log(x) if x > 1 else 0.0  # x <= 1 is outside the asymptotics
    n_small = N <= log_x / 10.0
    loglog_ok = log_x <= 1 or math.log(log_x) <= N ** (2.0 - REGIME_EPSILON)
    return RegimeFlags(n_small=bool(n_small), loglog_ok=bool(loglog_ok))


@dataclass(frozen=True)
class ExperimentPlan:
    """What every walk and bootstrap of one experiment shares.

    Per-call values (x, q, N, epsilon, delta) are estimator arguments.
    """

    master_seed: int
    samples: int
    model: ModelSpec = field(default_factory=lambda: ModelSpec("rmf"))
    workers: int = 1
    budget: float | None = None
    n_boot: int = 1000

    def __post_init__(self):
        if self.samples < 1:
            raise ParameterError("samples must be >= 1")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.n_boot < 2:
            raise ParameterError(f"bootstrap needs n_boot >= 2, got {self.n_boot}")
        signs.check_seed(self.master_seed)


@dataclass(frozen=True)
class EstimateWithCI:
    """Point estimate with a 95% percentile-bootstrap interval."""

    point: float
    ci_lo: float
    ci_hi: float
    se: float
    n_samples: int
    seed: int

    def __post_init__(self):
        # percentile intervals always bracket the point here; clip defensively
        object.__setattr__(self, "ci_lo", min(self.ci_lo, self.point))
        object.__setattr__(self, "ci_hi", max(self.ci_hi, self.point))


def _boot_rng(master_seed: int, purpose: str) -> np.random.Generator:
    digest = hashlib.sha256(purpose.encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([master_seed, *words]))


def _mean_ordered(values: np.ndarray) -> float:
    return math.fsum(float(v) for v in values) / values.shape[0]


def _row_means(block: np.ndarray) -> np.ndarray:
    # each row of the C-contiguous index matrix sums pairwise like a lone vector
    return block.mean(axis=1)


def bootstrap_estimate(
    values: np.ndarray,
    master_seed: int,
    purpose: str,
    n_boot: int = 1000,
    statistic: Callable[[np.ndarray], np.ndarray] | None = None,
) -> EstimateWithCI:
    """Percentile bootstrap of ``statistic`` (default: the mean).

    ``values`` is indexed by sample, in sample-index order, with shape (n,)
    or (n, k).  A ``statistic`` takes a block ``values[idx]`` of resamples,
    shape (take, n) or (take, n, k), and returns one value per resample;
    the point estimate is its value on the block of the sample itself.  The
    default mean takes a 1-D sample: the point is the compensated mean and
    each resample's mean is ``block.mean(axis=1)``.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if n < 1:
        raise ParameterError("bootstrap needs at least one sample")
    if n_boot < 2:
        raise ParameterError(f"bootstrap needs n_boot >= 2, got {n_boot}")
    if statistic is None:
        point = _mean_ordered(values)
        statistic = _row_means
    else:
        point = float(statistic(values[None])[0])
    if n == 1:
        return EstimateWithCI(point, point, point, 0.0, 1, master_seed)
    rng = _boot_rng(master_seed, purpose)
    stats = np.empty(n_boot)
    chunk = max(1, int(2e6) // values.size)
    if values.ndim > 1:
        # _pearson's column copies, centred copies and product come to about
        # 4 blocks; a quarter of the chunk keeps them within the 1-D path's bytes
        chunk = max(1, chunk // 4)
    for done in range(0, n_boot, chunk):
        take = min(chunk, n_boot - done)
        # idx stays bound past the gather: freeing it inside the gather made
        # the 10^4-sample bootstrap about 30% slower (2-vCPU host)
        idx = rng.integers(0, n, size=(take, n))
        stats[done : done + take] = statistic(values[idx])
    lo, hi = np.percentile(stats, [2.5, 97.5])
    se = float(stats.std(ddof=1))
    return EstimateWithCI(point, float(lo), float(hi), se, n, master_seed)


def _floors(xs: Sequence[float]) -> list[int]:
    """floor(x) of every x; a NaN or infinite x is a ``ParameterError``."""
    try:
        return [int(math.floor(x)) for x in xs]
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"x must be finite, got {list(xs)}") from exc


def _walk(
    plan: ExperimentPlan, marks: Sequence[int], *, census: bool, first_change: bool = False
) -> WalkResult:
    """Walk every sample of ``plan`` to its largest mark, reporting at ``marks``."""
    return collect_walks(
        plan.model,
        max(marks),
        marks,
        range(plan.samples),
        plan.master_seed,
        census=census,
        workers=plan.workers,
        budget=resolve_budget(plan.budget),
        first_change=first_change,
    )


def moment_table(
    plan: ExperimentPlan, x_list: Sequence[float], q_list: Sequence[float]
) -> dict[tuple[float, float], EstimateWithCI]:
    """E|M(x)|^q for every (x, q) pair, sharing one trace per sample.

    Every q must be finite and >= 0: M(x) = 0 has positive probability, so
    a negative moment is infinite.
    """
    xs, qs = tuple(x_list), tuple(q_list)
    if not xs or not qs:
        raise ParameterError("moment_table needs nonempty x and q lists")
    bad = [q for q in qs if not (math.isfinite(q) and q >= 0)]
    if bad:
        raise ParameterError(f"moment orders q must be finite and >= 0, got {bad}")
    positions = _floors(xs)
    res = _walk(plan, positions, census=False)
    out: dict[tuple[float, float], EstimateWithCI] = {}
    for x, j in zip(xs, res.columns(positions)):
        m_vals = res.values[:, j].astype(np.float64)
        for q in qs:
            vals = np.abs(m_vals) ** q
            purpose = f"moment|model={plan.model.kind}|x={x!r}|q={q!r}"
            out[(x, q)] = bootstrap_estimate(
                vals, plan.master_seed, purpose, plan.n_boot
            )
    return out


def estimate_moment(plan: ExperimentPlan, x: float, q: float) -> EstimateWithCI:
    """Sample mean of |M(floor(x))|^q with bootstrap CI."""
    return moment_table(plan, [x], [q])[(x, q)]


def expected_v_table(
    plan: ExperimentPlan, x_list: Sequence[float]
) -> dict[float, EstimateWithCI]:
    """E V(x) on a grid of x, one census trace per sample."""
    xs = tuple(x_list)
    if not xs:
        raise ParameterError("expected_v_table needs a nonempty x grid")
    positions = _floors(xs)
    res = _walk(plan, positions, census=True)
    out = {}
    for x, j in zip(xs, res.columns(positions)):
        counts = res.changes[:, j].astype(np.float64)
        purpose = f"avg-v|model={plan.model.kind}|x={x!r}"
        out[x] = bootstrap_estimate(counts, plan.master_seed, purpose, plan.n_boot)
    return out


def estimate_expected_V(plan: ExperimentPlan, x: float) -> EstimateWithCI:
    """Mean number of sign changes of M(u) over u in [1, x]."""
    return expected_v_table(plan, [x])[x]


def estimate_sign_change_prob(plan: ExperimentPlan, x: float, N: int) -> EstimateWithCI:
    """P(at least one sign change of M(u) for integer u in (x, e^N x])."""
    a = _floors([x])[0]
    b = grid_positions(x, N)[-1]  # > a, as e^N x >= e x > x + 1
    purpose = f"signprob|model={plan.model.kind}|x={x!r}|N={N}"
    res = _walk(plan, [a, b], census=True, first_change=True)
    ind = (res.changes[:, 1] - res.changes[:, 0] >= 1).astype(np.float64)
    return bootstrap_estimate(ind, plan.master_seed, purpose, plan.n_boot)


def _checkpoint_matrix(plan: ExperimentPlan, x: float, N: int) -> np.ndarray:
    """Y[:, n - 1] = M(floor(e^n x)) / sqrt(e^n x) for n = 1..N, from one walk."""
    positions = grid_positions(x, N)
    res = _walk(plan, positions, census=False)
    denom = np.array([math.sqrt(math.exp(n) * x) for n in range(1, N + 1)])
    return res.values[:, res.columns(positions)].astype(np.float64) / denom


def x_ell_grid(epsilon: float, ell_max: int) -> list[float]:
    """The spacing grid x_l = exp(l * (log l)^{1/2+epsilon}), l = 2..ell_max."""
    if not (0 < epsilon <= 0.01):
        raise ParameterError(f"epsilon must lie in (0, 1/100], got {epsilon}")
    if ell_max < 2:
        raise ParameterError(f"ell_max must be >= 2, got {ell_max}")
    try:
        return [
            math.exp(ell * math.log(ell) ** (0.5 + epsilon))
            for ell in range(2, ell_max + 1)
        ]
    except OverflowError as exc:
        raise ParameterError(f"x_ell overflows a float for some ell <= {ell_max} at epsilon={epsilon}") from exc


@dataclass(frozen=True)
class EventProbEstimates:
    """Empirical probabilities of the forcing events on the checkpoint grid."""

    p_a: EstimateWithCI
    p_b: EstimateWithCI
    p_change_given_ab: EstimateWithCI | None
    lambda1: float
    threshold_ok: bool


def estimate_event_probs(
    plan: ExperimentPlan, x: float, N: int, epsilon: float = 0.1, delta: float = 0.1
) -> EventProbEstimates:
    check_event_params(epsilon, delta)
    params = LambdaParams(N=N, q=1.0, x=x)
    y = _checkpoint_matrix(plan, x, N)  # refuses an overflowing e^N x before Lambda's N terms
    lam1 = lambda_exact(params)
    a, b, mixed, threshold_ok = forcing_events(y, lam1, epsilon, delta)
    base = f"events|model={plan.model.kind}|x={x!r}|N={N}|eps={epsilon!r}|delta={delta!r}"

    def freq(events: np.ndarray, tag: str) -> EstimateWithCI:
        return bootstrap_estimate(events.astype(np.float64), plan.master_seed, base + tag, plan.n_boot)

    ab = a & b
    cond = freq(mixed[ab], "|cond") if N > 1 and ab.any() else None
    return EventProbEstimates(freq(a, "|A"), freq(b, "|B"), cond, lam1, threshold_ok)


def _pearson(block: np.ndarray) -> np.ndarray:
    """Pearson correlation of the two columns of each resample in a (take, n, 2) block."""
    a = np.ascontiguousarray(block[..., 0])
    b = np.ascontiguousarray(block[..., 1])
    sa = a.std(axis=-1)
    sb = b.std(axis=-1)
    cov = ((a - a.mean(axis=-1, keepdims=True)) * (b - b.mean(axis=-1, keepdims=True))).mean(axis=-1)
    flat = (sa == 0) | (sb == 0)
    return np.where(flat, 0.0, cov / np.where(flat, 1.0, sa * sb))


def correlation_table(
    plan: ExperimentPlan, x: float, pairs: Sequence[tuple[int, int]]
) -> dict[tuple[int, int], EstimateWithCI]:
    """Pearson correlation of (Y_n, Y_m) for every pair (n, m), from one walk.

    The walk goes to the largest e^m x among the pairs; a pair with n = m is
    exactly 1 and needs no walk.  Indices must be >= 1.
    """
    if any(min(n, m) < 1 for n, m in pairs):
        raise ParameterError(f"checkpoint indices must be >= 1, got pairs {list(pairs)}")
    top = max((max(n, m) for n, m in pairs if n != m), default=0)
    y = _checkpoint_matrix(plan, x, top) if top else None
    out = {}
    for n, m in pairs:
        if n == m:
            out[(n, m)] = EstimateWithCI(1.0, 1.0, 1.0, 0.0, plan.samples, plan.master_seed)
            continue
        purpose = f"corr|model={plan.model.kind}|x={x!r}|n={n}|m={m}"
        lo, hi = sorted((n, m))
        out[(n, m)] = bootstrap_estimate(
            y[:, [lo - 1, hi - 1]], plan.master_seed, purpose, plan.n_boot, statistic=_pearson
        )
    return out


def estimate_correlation(
    plan: ExperimentPlan, x: float, n: int, m: int
) -> EstimateWithCI:
    """Empirical Pearson correlation of (Y_n, Y_m) across samples."""
    return correlation_table(plan, x, [(n, m)])[(n, m)]

