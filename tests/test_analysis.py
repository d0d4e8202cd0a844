import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.acceptance import _naive_recount
from rmflab.analysis import (
    LambdaParams,
    count_sign_changes,
    exact_correlation,
    forcing_events,
    harper_predictor,
    lambda_asymptotic,
    lambda_exact,
)
from rmflab.errors import ParameterError, ResourceError
from rmflab.sieve import squarefree_count


def events_of(rows, epsilon, delta, x=1000.0):
    """forcing_events on a matrix of Y rows, with Lambda from its N and x."""
    y = np.asarray(rows, dtype=np.float64)
    lam1 = lambda_exact(LambdaParams(N=y.shape[1], q=1.0, x=x))
    return forcing_events(y, lam1, epsilon, delta)


class TestLambda:
    def test_q2_gives_n(self):
        for n_terms in (1, 7, 100):
            p = LambdaParams(N=n_terms, q=2.0, x=50.0)
            assert lambda_exact(p) == pytest.approx(n_terms, rel=1e-12)

    def test_single_term_reference_value(self):
        # term at n=1, x=e^e, q=1: (1 + 0.5 sqrt(log(e+1)))^(-1/2)
        want = (1 + 0.5 * math.sqrt(math.log(math.e + 1))) ** -0.5
        got = lambda_exact(LambdaParams(N=1, q=1.0, x=math.exp(math.e)))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.7973, abs=5e-5)

    def test_additivity(self):
        p1 = LambdaParams(N=1, q=1.3, x=100.0)
        p2 = LambdaParams(N=2, q=1.3, x=100.0)
        term2 = (1 + 0.35 * math.sqrt(math.log(2 + math.log(100.0)))) ** -0.65
        assert lambda_exact(p2) == pytest.approx(lambda_exact(p1) + term2, rel=1e-12)

    @given(st.integers(1, 200), st.floats(1.0, 1.9), st.floats(3.0, 1e6))
    def test_increasing_in_n(self, n_terms, q, x):
        a = lambda_exact(LambdaParams(N=n_terms, q=q, x=x))
        b = lambda_exact(LambdaParams(N=n_terms + 1, q=q, x=x))
        assert b > a

    @given(st.integers(1, 50), st.floats(1.0, 1.89))
    def test_decreasing_in_x_for_q_below_2(self, n_terms, q):
        a = lambda_exact(LambdaParams(N=n_terms, q=q, x=100.0))
        b = lambda_exact(LambdaParams(N=n_terms, q=q, x=1e8))
        assert b < a

    def test_asymptotic_reference(self):
        p = LambdaParams(N=100, q=1.0, log_log_x=16.0)
        assert lambda_asymptotic(p) == pytest.approx(100 / (0.5**0.5 * 2), rel=1e-12)

    def test_asymptotic_rejects_large_q(self):
        with pytest.raises(ParameterError):
            lambda_asymptotic(LambdaParams(N=5, q=1.95, x=100.0))

    def test_loglog_parametrization_matches_x(self):
        x = 1e10
        a = lambda_exact(LambdaParams(N=20, q=1.5, x=x))
        b = lambda_exact(LambdaParams(N=20, q=1.5, log_log_x=math.log(math.log(x))))
        assert a == pytest.approx(b, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            LambdaParams(N=0, q=1.0, x=10.0)
        with pytest.raises(ParameterError):
            LambdaParams(N=1, q=0.5, x=10.0)
        with pytest.raises(ParameterError):
            LambdaParams(N=1, q=1.0, x=2.0)  # below e
        with pytest.raises(ParameterError):
            LambdaParams(N=1, q=1.0, x=10.0, log_x=5.0)
        with pytest.raises(ParameterError):
            LambdaParams(N=1, q=1.0)


class TestHarper:
    def test_q2_is_x(self):
        assert harper_predictor(1e6, 2.0) == pytest.approx(1e6, rel=1e-12)

    def test_q1_at_loglog_4(self):
        x = math.exp(math.exp(4.0))
        assert harper_predictor(x, 1.0) == pytest.approx((x / 2) ** 0.5, rel=1e-12)

    def test_decreasing_in_deficit(self):
        # smaller q means a larger deficit term and a smaller scale per power
        x = 1e8
        a = harper_predictor(x, 1.0) ** (1 / 0.5)
        b = harper_predictor(x, 2.0) ** (1 / 1.0)
        assert a < b

    def test_domain(self):
        with pytest.raises(ParameterError):
            harper_predictor(10.0, 1.0)


class TestCountSignChanges:
    def test_examples(self):
        assert count_sign_changes([1, -2, 3]).count == 2
        assert count_sign_changes([1, 0, -1, 0, 1]).count == 2
        assert count_sign_changes([5, 3, 2]).count == 0
        assert count_sign_changes([0, 0, 0]).count == 0

    def test_positions(self):
        rep = count_sign_changes([1, 0, -1, 0, 1])
        assert rep.positions == (2, 4)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            count_sign_changes([])

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_naive_recount_matches_on_numpy_rows(self, dtype):
        # the gate's brute-force criterion feeds numpy integer rows with zeros
        row = np.array([0, 1, 0, -2, 0, 0, 3, -1, 0, 1, 1, 0], dtype=dtype)
        assert _naive_recount(row) == count_sign_changes(row).count == 4
        steps = 1 - 2 * ((np.arange(16)[:, None] >> np.arange(8)) & 1).astype(dtype)
        for path in np.cumsum(steps, axis=1, dtype=dtype):
            assert _naive_recount(path) == count_sign_changes(path).count

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    def test_negation_and_scale_invariance(self, vals):
        base = count_sign_changes(vals).count
        assert count_sign_changes([-v for v in vals]).count == base
        assert count_sign_changes([2.5 * v for v in vals]).count == base


class TestExactMoments:
    def test_correlation_reference_n1_m2_x100(self):
        # direct reimplementation of the defining quantities
        x = 100.0
        u1 = math.floor(math.e * x)
        assert u1 == 271
        q1 = squarefree_count(u1)
        q2 = squarefree_count(math.floor(math.e**2 * x))
        cov = q1 / (math.exp(1.5) * x) - 1.0 / (math.exp(1.5) * x)
        var1 = q1 / (math.e * x) - 1.0 / (math.e * x)
        var2 = q2 / (math.e**2 * x) - 1.0 / (math.e**2 * x)
        want = cov / math.sqrt(var1 * var2)
        assert exact_correlation(x, 1, 2) == pytest.approx(want, rel=1e-12)

    def test_decay_bound_with_constant_two(self):
        for x in (1e3, 1e5):
            for n in range(1, 10):
                for m in range(n + 1, 11):
                    v = abs(exact_correlation(x, n, m)) * math.exp((m - n) / 2)
                    assert v <= 2.0

    def test_limit_ratio_band_at_1e6(self):
        for n in range(1, 10):
            for m in range(n + 1, 11):
                r = exact_correlation(1e6, n, m) * math.exp((m - n) / 2)
                assert 0.3 <= r <= 1.2

    def test_parameter_order(self):
        with pytest.raises(ParameterError):
            exact_correlation(100.0, 2, 2)

    def test_grid_point_overflow_and_sieve_ceiling(self):
        # e^3 * 1e308 is past the largest float; e^2 * 1e14 is a float past the sieve
        with pytest.raises(ParameterError, match="overflows"):
            exact_correlation(1e308, 1, 3)
        with pytest.raises(ResourceError, match="sieve ceiling"):
            exact_correlation(1e14, 1, 2)


class TestChebyshev:
    def test_moment_linear_bound(self):
        # E S_N^2 = sum_{n,m<=N} Q(floor(e^min(n,m) x)) / (e^{(n+m)/2} x), the
        # moment a Chebyshev bound on |S_N| reads, grows at most like 3N
        for x in (1e3, 1e4):
            q = [squarefree_count(math.floor(math.exp(k) * x)) for k in range(1, 11)]
            for n_grid in (1, 5, 10):
                moment = math.fsum(
                    q[min(n, m) - 1] / (math.exp((n + m) / 2.0) * x)
                    for n in range(1, n_grid + 1)
                    for m in range(1, n_grid + 1)
                )
                assert moment <= 3 * n_grid


class TestEvents:
    def test_constant_positive_grid(self):
        a, b, mixed, _ = events_of([[5.0] * 6], epsilon=0.1, delta=0.1)
        assert a[0]  # S* is large
        assert not b[0]  # |S| equally large
        assert not mixed[0]

    def test_epsilon_zero_rejected(self):
        y = np.array([[1.0, -1.0]])
        with pytest.raises(ParameterError):
            forcing_events(y, 1.0, epsilon=0.0, delta=0.1)
        with pytest.raises(ParameterError):
            forcing_events(y, 1.0, epsilon=0.1, delta=1.0)

    def test_forcing_implication_exhaustive_small(self):
        # over all sign patterns of length <= 4: if the geometry holds and
        # A and B both occur, the Y signs must be mixed
        forced = 0
        for n_grid in (2, 3, 4):
            digits = np.array(
                [[code // 3**k % 3 - 1 for k in range(n_grid)] for code in range(3**n_grid)]
            )
            a, b, mixed, threshold_ok = events_of(2.0 * digits, epsilon=0.45, delta=0.9)
            if threshold_ok:
                assert np.all(mixed[a & b])
                forced += int((a & b).sum())
        assert forced > 0  # the geometry holds at N = 4 with these eps, delta

    @settings(max_examples=200)
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(-3, 3, allow_nan=False), min_size=n, max_size=n),
                min_size=1,
                max_size=6,
            )
        )
    )
    def test_forcing_implication_random(self, rows):
        a, b, mixed, threshold_ok = events_of(rows, epsilon=0.3, delta=0.95)
        if threshold_ok:
            assert np.all(mixed[a & b])
