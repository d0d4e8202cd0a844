import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from rmflab import engine, models, montecarlo, sieve
from rmflab.analysis import exact_correlation
from rmflab.engine import run_walks
from rmflab.errors import ParameterError, ResourceError
from rmflab.models import ModelSpec, sample_path
from rmflab.montecarlo import (
    EstimateWithCI,
    ExperimentPlan,
    bootstrap_estimate,
    correlation_table,
    estimate_correlation,
    estimate_event_probs,
    estimate_expected_V,
    estimate_moment,
    estimate_sign_change_prob,
    expected_v_table,
    moment_table,
    regime_flags,
    x_ell_grid,
)
from rmflab.rmf import RmfWordSource, SignOracle, grid_positions, rmf_trace
from rmflab.sieve import mertens_trace, squarefree_count

from oracle import AllPlusWordSource


def plan(seed=101, samples=500, kind="rmf", **kw):
    return ExperimentPlan(master_seed=seed, samples=samples, model=ModelSpec(kind), **kw)


def pearson(block):
    """Pearson correlation of the two columns of one (n, 2) sample."""
    a, b = block[:, 0], block[:, 1]
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def looped_bootstrap(values, seed, purpose, n_boot, statistic, point):
    """The percentile bootstrap on the same draws, one scalar ``statistic`` call per resample."""
    rng = montecarlo._boot_rng(seed, purpose)
    n = values.shape[0]
    stats = np.array([statistic(values[rng.integers(0, n, size=n)]) for _ in range(n_boot)])
    lo, hi = np.percentile(stats, [2.5, 97.5])
    return EstimateWithCI(point, float(lo), float(hi), float(stats.std(ddof=1)), n, seed)


@pytest.fixture
def walk_ends(monkeypatch):
    """The x_end of every walk the estimators start, in call order."""
    ends = []
    walk = montecarlo.collect_walks

    def counted(model, x_end, *args, **kw):
        ends.append(x_end)
        return walk(model, x_end, *args, **kw)

    monkeypatch.setattr(montecarlo, "collect_walks", counted)
    return ends


@pytest.fixture
def segment_loops(monkeypatch):
    """The x_end of every walk that reaches its segment loop, in call order."""
    ends = []
    length = engine.segment_length_for

    def counted(x_end):
        ends.append(x_end)
        return length(x_end)

    for module in (engine, models, sieve):
        monkeypatch.setattr(module, "segment_length_for", counted)
    return ends


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda x: exact_correlation(x, 1, 2),
        lambda x: moment_table(plan(samples=4), [x], [1.0]),
        lambda x: expected_v_table(plan(samples=4), [x]),
        lambda x: correlation_table(plan(samples=4), x, [(1, 2)]),
        lambda x: estimate_sign_change_prob(plan(samples=4), x, 2),
        lambda x: sample_path(ModelSpec("rmf"), x, 1),
        lambda x: mertens_trace(x),
        lambda x: grid_positions(x, 2),
        lambda x: rmf_trace(SignOracle(1), x),
    ],
    ids=["exact_correlation", "moment_table", "expected_v_table", "correlation_table",
         "estimate_sign_change_prob", "sample_path", "mertens_trace", "grid_positions", "rmf_trace"],
)
def test_nonfinite_x_is_a_parameter_error_before_walking(call, x, segment_loops):
    with pytest.raises(ParameterError):
        call(x)
    assert segment_loops == []


class TestWalkColumns:
    def test_columns_of_marks(self):
        res = run_walks(RmfWordSource(master_seed=1), 1000, [1000, 10, 100], range(4))
        assert list(res.columns([1000, 10])) == [2, 0]
        assert res.columns([]).size == 0

    @pytest.mark.parametrize("positions", [[11], [10, 2000], [0], [5]])
    def test_non_mark_position_raises(self, positions):
        res = run_walks(RmfWordSource(master_seed=1), 1000, [10, 100, 1000], range(4))
        with pytest.raises(ParameterError):
            res.columns(positions)


class TestPlan:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ExperimentPlan(master_seed=1, samples=0)
        with pytest.raises(ParameterError):
            ExperimentPlan(master_seed=1, samples=4, workers=0)
        for n_boot in (0, 1):
            with pytest.raises(ParameterError, match="n_boot >= 2"):
                ExperimentPlan(master_seed=1, samples=100, n_boot=n_boot)

    def test_one_resample_is_refused(self):
        # the standard error of one resample, std(ddof=1), is undefined
        vals = np.arange(100, dtype=np.float64)
        with pytest.raises(ParameterError, match="n_boot >= 2"):
            bootstrap_estimate(vals, 1, "one", 1)
        assert math.isfinite(bootstrap_estimate(vals, 1, "two", 2).se)

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**65 - 1])
    def test_seed_outside_its_domain_is_refused(self, seed):
        # block_key reduces a seed mod 2^64, so -1, 2^64 - 1 and 2^65 - 1
        # would share one stream; every entry point refuses them
        calls = [
            lambda: ExperimentPlan(master_seed=seed, samples=4),
            lambda: SignOracle(seed),
            lambda: models.collect_walks(ModelSpec("iid_rademacher"), 10, [10], range(4), seed),
            lambda: sample_path(ModelSpec("sidon_cosine"), 10, seed),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match=r"master seed must lie in \[0, 2\^63\)"):
                call()

    def test_seed_domain_ends_below_2_63(self):
        top = 2**63 - 1
        assert rmf_trace(SignOracle(top), 100).x_end == 100
        assert estimate_moment(plan(seed=top, samples=8, n_boot=2), 100.0, 1.0).seed == top

    def test_regime_flags(self):
        flags = regime_flags(math.exp(200.0), 8)
        assert flags.n_small and flags.loglog_ok
        assert not regime_flags(100.0, 50).n_small


class TestBootstrap:
    def test_point_is_exact_mean(self):
        vals = np.array([1.0, 2.0, 4.0])
        est = bootstrap_estimate(vals, 5, "t")
        assert est.point == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert est.ci_lo <= est.point <= est.ci_hi

    def test_deterministic_given_purpose(self):
        vals = np.arange(100, dtype=np.float64)
        a = bootstrap_estimate(vals, 5, "same")
        b = bootstrap_estimate(vals, 5, "same")
        c = bootstrap_estimate(vals, 5, "other")
        assert a == b
        assert a.ci_lo != c.ci_lo or a.ci_hi != c.ci_hi

    def test_ci_width_shrinks_like_root_n(self):
        rng = np.random.default_rng(0)
        widths = {}
        for n in (250, 1000, 4000):
            vals = rng.normal(size=n)
            est = bootstrap_estimate(vals, 7, f"w{n}")
            widths[n] = est.ci_hi - est.ci_lo
        for big, small in ((1000, 250), (4000, 1000)):
            ratio = widths[small] / widths[big]
            assert 1.0 <= ratio <= 4.0  # within factor 2 of the sqrt law (=2)

    @pytest.mark.parametrize("n", [2, 7, 256, 511, 10_000])
    def test_default_mean_matches_per_resample_mean(self, n):
        # the chunked row means must equal one float(block.mean()) per resample
        rng = np.random.default_rng(n)
        for vals in (rng.normal(size=n) * 1e3, rng.integers(0, 5, n)):
            a = bootstrap_estimate(vals, 5, "rows", 300)
            b = looped_bootstrap(vals, 5, "rows", 300, lambda blk: float(blk.mean()), a.point)
            assert (a.ci_lo, a.ci_hi, a.se) == (b.ci_lo, b.ci_hi, b.se)

    @pytest.mark.parametrize("shape", [(2000,), (2000, 2)])
    def test_column_blocks_take_a_quarter_of_the_1d_bound(self, shape):
        # a 2-column statistic (_pearson) makes about 4 block-sized copies, so
        # its blocks hold a quarter of the 2e6 values a 1-D block may hold
        sizes = []

        def first_column_mean(block):
            sizes.append(block.size)
            return block.reshape(*block.shape[:2], -1)[..., 0].mean(axis=-1)

        vals = np.random.default_rng(3).normal(size=shape)
        bootstrap_estimate(vals, 5, "sizes", 1000, statistic=first_column_mean)
        bound = int(2e6) if len(shape) == 1 else int(2e6) // 4
        assert sizes[0] == vals.size  # the point estimate's block
        assert max(sizes[1:]) <= bound
        assert sum(sizes[1:]) == 1000 * vals.size


class TestMoments:
    def test_q0_exactly_one(self):
        est = estimate_moment(plan(samples=50), 100.0, 0.0)
        assert est.point == 1.0
        assert est.ci_lo == est.ci_hi == 1.0

    def test_q2_matches_q_of_x(self):
        est = estimate_moment(plan(samples=2000), 1000.0, 2.0)
        assert abs(est.point - squarefree_count(1000)) <= 4 * est.se

    def test_q1_iid_matches_binomial_identity(self):
        # E|S_n| for the simple +-1 walk, computed from the binomial law
        n = 20
        k = np.arange(n + 1)
        exact = float(np.sum(sps.binom.pmf(k, n, 0.5) * np.abs(n - 2 * k)))
        est = estimate_moment(plan(samples=4000, kind="iid_rademacher"), float(n), 1.0)
        assert abs(est.point - exact) <= 4 * est.se

    def test_moment_table_shares_traces(self):
        p = plan(samples=200)
        table = moment_table(p, [100.0, 1000.0], [1.0, 2.0])
        single = estimate_moment(p, 100.0, 1.0)
        assert table[(100.0, 1.0)] == single

    def test_q0_is_one_even_where_m_is_zero(self):
        # M(103) = 0 for some samples, and 0 ** 0 = 1
        est = moment_table(plan(samples=200), [103.0], [0.0])[(103.0, 0.0)]
        assert (est.point, est.ci_lo, est.ci_hi) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("q", [-1.0, -0.5, math.inf, math.nan])
    def test_negative_or_nonfinite_q_rejected_before_walking(self, q, walk_ends):
        # M(103) = 0 for some samples, so a negative moment is infinite
        with pytest.raises(ParameterError):
            moment_table(plan(samples=200), [103.0], [1.0, q])
        assert walk_ends == []


class TestExpectedV:
    def test_x1_is_zero(self):
        est = estimate_expected_V(plan(samples=50), 1.0)
        assert est.point == 0.0

    def test_pathwise_monotone_in_x(self):
        p = plan(samples=300, kind="iid_rademacher")
        table = expected_v_table(p, [100.0, 1000.0, 10000.0])
        pts = [table[x].point for x in (100.0, 1000.0, 10000.0)]
        assert pts[0] <= pts[1] <= pts[2]


class TestSignChangeProb:
    def test_n_below_one_rejected(self):
        # N = 0 gives the empty interval (x, x], which has no sign change to ask about
        for N in (0, -1):
            with pytest.raises(ParameterError):
                estimate_sign_change_prob(plan(samples=20), 100.0, N)

    def test_all_plus_walk_never_changes(self):
        res = run_walks(AllPlusWordSource(master_seed=1), 1000, [100, 1000], range(8))
        assert np.all(res.changes == 0)

    def test_prob_positive_at_moderate_x(self):
        est = estimate_sign_change_prob(plan(samples=300), 1000.0, 4)
        assert est.point > 0.2


class TestXEllGrid:
    def test_reference_value(self):
        g = x_ell_grid(0.01, 3)
        want = math.exp(2 * math.log(2) ** 0.51)
        assert g[0] == pytest.approx(want, rel=1e-12)
        assert g[0] == pytest.approx(5.25, abs=0.01)

    def test_strictly_increasing(self):
        g = x_ell_grid(0.005, 40)
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_log_ratio_tracks_spacing_exponent(self):
        g = x_ell_grid(0.01, 40)
        for ell in range(10, 39):
            logratio = math.log(g[ell - 1] / g[ell - 2])  # x_{ell+1}/x_ell
            target = math.log(ell) ** 0.51
            assert target / 3 <= logratio <= 3 * target

    def test_epsilon_range(self):
        with pytest.raises(ParameterError):
            x_ell_grid(0.5, 10)
        with pytest.raises(ParameterError):
            x_ell_grid(0.01, 1)
        assert x_ell_grid(0.01, 2)  # the boundary value 1/100 is allowed

    def test_float_overflow_is_a_parameter_error(self):
        # x_293 = exp(293 (log 293)^0.51) is past the largest float
        assert math.isfinite(x_ell_grid(0.01, 292)[-1])
        with pytest.raises(ParameterError, match="overflows"):
            x_ell_grid(0.01, 293)


class TestEvents:
    def test_n1_conditional_undefined(self):
        res = estimate_event_probs(plan(samples=200), 1000.0, 1)
        assert res.p_change_given_ab is None

    def test_b_probability_high_in_regime(self):
        # desk-scale stand-in for the pilot-sized x=1e4, N=10 run (see
        # scripts/run_pilot.py): the clipping event B should dominate
        res = estimate_event_probs(
            plan(samples=400, budget=2 * 10**9), 10**4, 6
        )
        assert res.p_b.point >= 0.85

    def test_parameter_checks(self, walk_ends):
        for eps, delta in [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, 1.0), (0.1, -0.5)]:
            with pytest.raises(ParameterError):
                estimate_event_probs(plan(samples=10), 100.0, 3, epsilon=eps, delta=delta)
        assert walk_ends == []

    def test_overflowing_grid_is_refused_before_lambda(self, monkeypatch):
        # Lambda sums N terms; e^N x overflows long before N = 10^6
        def no_lambda(params):
            raise AssertionError("lambda_exact ran")

        monkeypatch.setattr(montecarlo, "lambda_exact", no_lambda)
        with pytest.raises(ParameterError, match="overflows"):
            estimate_event_probs(plan(samples=10), 1e4, 10**6)


class TestCorrelation:
    def test_self_correlation_exact_one(self):
        est = estimate_correlation(plan(samples=10), 1000.0, 2, 2)
        assert est.point == 1.0 and est.se == 0.0

    def test_matches_exact_at_small_pair(self):
        est = estimate_correlation(plan(samples=2000, seed=2024), 1000.0, 1, 2)
        rho = exact_correlation(1000.0, 1, 2)
        assert abs(est.point - rho) <= 4 * est.se

    @pytest.mark.parametrize("n, m", [(0, 3), (-2, 3), (3, 0)])
    def test_index_below_one_rejected_before_walking(self, n, m, walk_ends):
        with pytest.raises(ParameterError):
            estimate_correlation(plan(samples=10), 1000.0, n, m)
        assert walk_ends == []

    def test_table_walks_once_and_matches_single_pairs(self, walk_ends):
        p = plan(samples=130, seed=3, n_boot=100)
        pairs = [(n, m) for n in range(1, 6) for m in range(n + 1, 7)] + [(4, 2), (3, 3)]
        table = correlation_table(p, 1000.0, pairs)
        assert walk_ends == [grid_positions(1000.0, 6)[-1]]
        # a single pair walks only to e^max(n, m) x and must give the same numbers
        for n, m in pairs:
            assert table[(n, m)] == estimate_correlation(p, 1000.0, n, m)
        assert walk_ends[1:] == [grid_positions(1000.0, max(n, m))[-1] for n, m in pairs if n != m]
        # the caller's order names the bootstrap stream, the statistic is symmetric
        cols = montecarlo._checkpoint_matrix(p, 1000.0, 4)[:, [1, 3]]
        purpose = "corr|model=rmf|x=1000.0|n=4|m=2"
        assert table[(4, 2)] == bootstrap_estimate(cols, 3, purpose, 100, statistic=montecarlo._pearson)
        assert table[(4, 2)].point == table[(2, 4)].point

    def test_table_matches_per_resample_pearson(self):
        p = plan(samples=301, seed=11, n_boot=200)
        y = montecarlo._checkpoint_matrix(p, 1000.0, 3)
        for (n, m), est in correlation_table(p, 1000.0, [(1, 3), (3, 2)]).items():
            lo, hi = sorted((n, m))
            cols = y[:, [lo - 1, hi - 1]]
            purpose = f"corr|model=rmf|x=1000.0|n={n}|m={m}"
            assert est == looped_bootstrap(cols, 11, purpose, 200, pearson, pearson(cols))

    def test_distant_pair_decays(self):
        est = estimate_correlation(plan(samples=1500, seed=7), 1000.0, 1, 6)
        assert abs(est.point) <= 2 * math.exp(-2.5) + 4 * est.se


class TestReproducibility:
    def test_same_plan_same_numbers(self):
        a = estimate_moment(plan(seed=5, samples=300), 2000.0, 1.5)
        b = estimate_moment(plan(seed=5, samples=300), 2000.0, 1.5)
        assert a == b

    def test_worker_invariance(self):
        a = estimate_expected_V(plan(seed=5, samples=130, workers=1), 3000.0)
        b = estimate_expected_V(plan(seed=5, samples=130, workers=2), 3000.0)
        assert a == b


class TestBudget:
    def test_budget_enforced(self):
        p = plan(samples=1000, budget=10**5)
        with pytest.raises(ResourceError) as err:
            estimate_expected_V(p, 10**6)
        assert err.value.required == 10**9

    def test_refusal_runs_in_constant_memory(self, monkeypatch):
        # the budget refuses 10^7 samples before anything their size is built
        monkeypatch.delenv("RMFLAB_BUDGET", raising=False)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as err:
                moment_table(ExperimentPlan(master_seed=1, samples=10**7), [1e4], [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.required == 10**11
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB traced"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RMFLAB_BUDGET", "1e5")
        p = plan(samples=1000)
        with pytest.raises(ResourceError):
            estimate_expected_V(p, 10**6)
