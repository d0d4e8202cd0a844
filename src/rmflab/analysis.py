"""Closed-form quantities and the sign-change counter.

Core objects:

* the grid sum  Lambda(N, x, q) = sum_{n<=N} (1 + (1-q/2) sqrt(loglog(e^n x)))^(-q/2)
  together with its large-x simplification  N / ((1-q/2)^{q/2} (loglog x)^{q/4});
* the moment-shape predictor  (x / (1 + (1-q/2) sqrt(loglog x)))^{q/2};
* the exact correlation of the normalized walk Y_n, derived from Q(x) by
  orthogonality:  E M(a)M(b) = Q(min(a,b)),  E M(u) = 1;
* the zero-skip sign-change counter;
* the forcing events A = [S_N* >= eps * Lambda], B = [|S_N| <= Lambda^{1-delta}]
  on a samples x N matrix of Y_n, whose joint occurrence forces mixed signs
  among Y_1..Y_N whenever Lambda^{1-delta} < eps * Lambda.

Parameters x far beyond float range are supported through the log-log
parametrization: loglog(e^n x) = llx + log1p(n * exp(-llx)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .census import change_positions_chunk
from .errors import ParameterError, ResourceError
from .rmf import grid_positions
from .sieve import squarefree_count

SIEVE_ARGUMENT_CEILING = 10**14  # Q(x) stays fast (O(sqrt x)) below this


@dataclass(frozen=True)
class LambdaParams:
    """Arguments of the grid sum Lambda.

    Give exactly one of ``x`` (requires x >= e), ``log_x`` (>= 1) or
    ``log_log_x`` (>= 0); the latter two exist because interesting regimes
    like loglog x = 10^4 put x itself far outside float range.
    """

    N: int
    q: float
    x: float | None = None
    log_x: float | None = None
    log_log_x: float | None = None
    llx: float = field(init=False)

    def __post_init__(self):
        if self.N < 1 or self.N != int(self.N):
            raise ParameterError(f"N must be a positive integer, got {self.N}")
        if not (1.0 <= self.q <= 2.0):
            raise ParameterError(f"q must lie in [1, 2], got {self.q}")
        given = [v for v in (self.x, self.log_x, self.log_log_x) if v is not None]
        if len(given) != 1:
            raise ParameterError("give exactly one of x, log_x, log_log_x")
        if not math.isfinite(given[0]):
            raise ParameterError(f"x, log_x and log_log_x must be finite, got {given[0]}")
        if self.x is not None:
            if self.x < math.e:
                raise ParameterError(f"x must be >= e, got {self.x}")
            llx = math.log(math.log(self.x))
        elif self.log_x is not None:
            if self.log_x < 1:
                raise ParameterError(f"log_x must be >= 1, got {self.log_x}")
            llx = math.log(self.log_x)
        else:
            if self.log_log_x < 0:
                raise ParameterError(f"log_log_x must be >= 0, got {self.log_log_x}")
            llx = float(self.log_log_x)
        object.__setattr__(self, "llx", llx)


def _loglog_en_x(llx: float, n: int) -> float:
    """loglog(e^n x) = log(n + log x), stable for any magnitude of log x."""
    return llx + math.log1p(n * math.exp(-llx))


def lambda_exact(params: LambdaParams) -> float:
    """The grid sum itself, compensated summation over n = 1..N."""
    c = 1.0 - params.q / 2.0
    e = -params.q / 2.0
    return math.fsum(
        (1.0 + c * math.sqrt(_loglog_en_x(params.llx, n))) ** e
        for n in range(1, params.N + 1)
    )


def lambda_asymptotic(params: LambdaParams) -> float:
    """Large-x simplification N / ((1-q/2)^{q/2} (loglog x)^{q/4}).

    Only meaningful for q < 2; the stated range is 1 <= q <= 1.9.

    This is the first-order form.  For N << log x every term of the exact
    sum equals (1 + c sqrt(L))^{-q/2} with c = 1 - q/2 and L = loglog x, so
    the relative error |exact - asymptotic| / exact is exactly
    (1 + 1/(c sqrt(L)))^{q/2} - 1, which is at most (q/2) / (c sqrt(L)).
    """
    if params.q > 1.9:
        raise ParameterError(f"asymptotic form requires q <= 1.9, got {params.q}")
    if params.llx <= 0:
        raise ParameterError("asymptotic form requires loglog x > 0 (x > e)")
    c = 1.0 - params.q / 2.0
    return params.N / (c ** (params.q / 2.0) * params.llx ** (params.q / 4.0))


def harper_predictor(x: float, q: float) -> float:
    """Moment-scale predictor (x / (1 + (1-q/2) sqrt(loglog x)))^{q/2}."""
    if x < math.exp(math.e):
        raise ParameterError(f"x must be >= e^e, got {x}")
    if not (1.0 <= q <= 2.0):
        raise ParameterError(f"q must lie in [1, 2], got {q}")
    llx = math.log(math.log(x))
    return (x / (1.0 + (1.0 - q / 2.0) * math.sqrt(llx))) ** (q / 2.0)


@dataclass(frozen=True)
class SignChangeReport:
    """Zero-skip census of a finite sequence."""

    count: int
    positions: tuple[int, ...]


def count_sign_changes(values) -> SignChangeReport:
    """Count adjacent opposite-sign pairs after stripping zeros.

    Positions refer to the original indexing and mark the later element of
    each counted pair.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("count_sign_changes needs a nonempty 1-d sequence")
    positions, _ = change_positions_chunk(arr, 0)
    return SignChangeReport(count=len(positions), positions=tuple(positions))


def exact_correlation(x: float, n: int, m: int) -> float:
    """Exact correlation of (Y_n, Y_m) for n < m.

    Built from E Y_n Y_m = Q(floor(e^n x)) / (e^{(n+m)/2} x),
    E Y_k = 1 / sqrt(e^k x), Var Y_k = Q(floor(e^k x))/(e^k x) - 1/(e^k x).
    """
    if not (1 <= n < m):
        raise ParameterError(f"need 1 <= n < m, got n={n}, m={m}")
    if x <= 0:
        raise ParameterError("x must be positive")
    positions = grid_positions(x, m)
    un, um = positions[n - 1], positions[m - 1]
    if um > SIEVE_ARGUMENT_CEILING:
        raise ResourceError(
            f"e^{m} * {x} = {um} exceeds the sieve ceiling {SIEVE_ARGUMENT_CEILING}",
            required=um,
        )
    q_n = squarefree_count(un)
    q_m = squarefree_count(um)
    e_yn_ym = q_n / (math.exp((n + m) / 2.0) * x)
    mean_prod = 1.0 / (math.exp((n + m) / 2.0) * x)
    var_n = q_n / (math.exp(n) * x) - 1.0 / (math.exp(n) * x)
    var_m = q_m / (math.exp(m) * x) - 1.0 / (math.exp(m) * x)
    if var_n <= 0 or var_m <= 0:
        raise ParameterError(f"degenerate variance at x={x}; use larger x")
    return (e_yn_ym - mean_prod) / math.sqrt(var_n * var_m)


def check_event_params(epsilon: float, delta: float) -> None:
    """Reject an epsilon <= 0 or a delta outside (0, 1) for the forcing events."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    if not (0 < delta < 1):
        raise ParameterError("delta must lie in (0, 1)")


def forcing_events(
    y: np.ndarray, lambda1: float, epsilon: float, delta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """The forcing events on each row of a samples x N matrix of Y_n.

    Returns ``(a, b, mixed, threshold_ok)``: per row A = [S_N* >= eps Lambda]
    and B = [|S_N| <= Lambda^{1-delta}] with S_N = sum Y_n and
    S_N* = sum |Y_n|, and whether the row's nonzero Y_n take both signs;
    ``threshold_ok`` states the geometry Lambda^{1-delta} < eps Lambda under
    which A and B jointly force mixed signs.
    """
    check_event_params(epsilon, delta)
    a = np.abs(y).sum(axis=1) >= epsilon * lambda1
    b = np.abs(y.sum(axis=1)) <= lambda1 ** (1.0 - delta)
    mixed = (y.min(axis=1) < 0) & (y.max(axis=1) > 0)
    return a, b, mixed, lambda1 ** (1.0 - delta) < epsilon * lambda1
