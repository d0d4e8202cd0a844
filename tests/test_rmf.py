import math

import numpy as np
import pytest

from rmflab import engine, models, signs
from rmflab.engine import PartialSumTrace, run_walks
from rmflab.errors import ParameterError, ResourceError
from rmflab.montecarlo import ExperimentPlan, _checkpoint_matrix, bootstrap_estimate
from rmflab.models import ModelSpec, collect_walks
from rmflab.rmf import RmfWordSource, SignOracle, grid_positions, rmf_trace
from rmflab.sieve import primes_up_to, squarefree_count

from oracle import (
    EDGE_SEGMENTS,
    AllPlusOracle,
    AllPlusWordSource,
    FactorRecord,
    f_value,
    factor_segment,
    sign_of_prime,
    sign_words_array,
    words_reference,
)


def brute_f(seed, idx, n):
    """f(n) by full trial division, independent of the sieve machinery."""
    if n == 1:
        return 1
    m, sgn, d = n, 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            sgn *= sign_of_prime(SignOracle(seed, idx), d)
        d += 1
    if m > 1:
        sgn *= sign_of_prime(SignOracle(seed, idx), m)
    return sgn


class TestSignOracle:
    def test_deterministic(self):
        o = SignOracle(master_seed=5, sample_index=9)
        assert sign_of_prime(o, 97) == sign_of_prime(o, 97)

    def test_hooks(self):
        plus = AllPlusOracle(1)
        minus = SignOracle(1, hook="minus")
        for p in (2, 3, 5, 101):
            assert sign_of_prime(plus, p) == 1
            assert sign_of_prime(minus, p) == -1

    def test_unknown_hook(self):
        # a word source with a typo in its hook would otherwise walk the hash
        for make in (SignOracle, RmfWordSource):
            with pytest.raises(ParameterError, match="unknown oracle hook 'bogus'"):
                make(1, hook="bogus")

    def test_nonprime_rejected_in_debug(self):
        with pytest.raises(ParameterError):
            sign_of_prime(SignOracle(1), 10)

    @pytest.mark.parametrize("seed,idx", [(42, 0), (42, 63), (7, 129)])
    def test_mean_within_five_se_over_primes(self, seed, idx):
        pt = primes_up_to(1_299_709)  # the first 1e5 primes
        ps = pt.primes[:100_000]
        o = SignOracle(seed, idx)
        from rmflab import signs

        key = signs.block_key(seed, idx >> 6, signs.SALT_PRIME)
        words = sign_words_array(key, ps)
        vals = 1 - 2 * ((words >> np.uint64(idx & 63)) & np.uint64(1)).astype(np.int64)
        # spot-check the vectorized signs against the scalar oracle
        for j in (0, 1, 99_999):
            assert vals[j] == sign_of_prime(o, int(ps[j]))
        assert abs(vals.mean()) <= 0.016  # 5 binomial standard errors


class TestFValue:
    def test_one(self):
        seg = factor_segment(1, 2, primes_up_to(2))
        assert f_value(SignOracle(3), seg.record(1)) == 1

    def test_non_squarefree_is_zero(self):
        seg = factor_segment(4, 5, primes_up_to(10))
        assert f_value(SignOracle(3), seg.record(4)) == 0

    def test_multiplicativity(self):
        o = SignOracle(11)
        seg = factor_segment(6, 7, primes_up_to(10))
        assert f_value(o, seg.record(6)) == sign_of_prime(o, 2) * sign_of_prime(o, 3)

    def test_inconsistent_record_rejected(self):
        bad = FactorRecord(n=10, prime_factors=(3,), cofactor=1, squarefree=True)
        with pytest.raises(AssertionError):
            f_value(SignOracle(1), bad)


@pytest.mark.parametrize("group", sorted(EDGE_SEGMENTS))
def test_block_words_match_oracle_on_squarefrees(group):
    seed = 2024
    source = RmfWordSource(master_seed=seed)
    for lo, hi in EDGE_SEGMENTS[group]:
        ctx = source.segment(source.begin(hi - 1, range(256)), lo, hi)
        primes = primes_up_to(max(2, math.isqrt(hi - 1)))
        for block in (0, 3):
            words, active = source.block_words(ctx, block)
            key = signs.block_key(seed, block, signs.SALT_PRIME)
            want = words_reference(lo, hi, primes, key)
            assert np.array_equal(words[active], want[active]), (lo, hi, block)


LANE_SAMPLES = (0, 5, 63, 64, 1000)


@pytest.mark.parametrize("walk", ["census", "values", "first_change"])
@pytest.mark.parametrize("hook", ["hash", "minus"])
@pytest.mark.parametrize("seed", [2024, 987654321])
def test_lane_path_equals_word_path(seed, hook, walk, monkeypatch):
    # a one-sample walk sieves its lane's signs into int8 steps, a block
    # walks 64-lane XOR words: each sample alone must equal its block row
    # bit for bit; 5000 in segments of 256 leaves a last one of 136
    monkeypatch.setattr(engine, "MIN_SEGMENT", 256)
    x, marks = 5000, [1, 100, 777, 4096, 5000]
    census = walk != "values"
    source = RmfWordSource(seed, hook)
    for s in LANE_SAMPLES:
        lane = source.segment(source.begin(x, range(s, s + 1)), 1, 257)
        assert source.block_words(lane, s >> 6)[0].dtype == np.int8
        block = range(s - s % 64, s - s % 64 + 64)
        many = run_walks(source, x, marks, block, census=census,
                         first_change=walk == "first_change")
        one = run_walks(source, x, marks, range(s, s + 1), census=census,
                        first_change=walk == "first_change")
        row = slice(s % 64, s % 64 + 1)
        assert np.array_equal(one.values, many.values[row]), (s, walk)
        assert one.values.dtype == many.values.dtype == np.int64
        if census:
            assert np.array_equal(one.changes, many.changes[row]), (s, walk)


@pytest.mark.parametrize("first_change", [False, True])
def test_collect_walks_one_sample_run_matches_one_process(first_change, monkeypatch):
    # at 2 workers the run [64, 65) holds one sample, which takes the lane
    # path; at 1 worker all 65 samples take the word path
    monkeypatch.setattr(models, "usable_cpus", lambda: 2)
    marks = [10, 500, 3000]
    one, two = (collect_walks(ModelSpec("rmf"), 3000, marks, range(65), 77,
                              workers=w, first_change=first_change) for w in (1, 2))
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.changes, two.changes)


class TestTrace:
    def test_all_plus_counts_squarefree(self, monkeypatch):
        tr = PartialSumTrace.of_walk(run_walks(AllPlusWordSource(1), 10, [10], range(1)), [])
        assert tr.final_value == squarefree_count(10) == 7
        assert tr.sign_change_count == 0
        # a one-sample walk of the all-plus source keeps its words: M(u) = Q(u)
        # over 20 segments, the last of 136
        monkeypatch.setattr(engine, "MIN_SEGMENT", 256)
        marks = [1, 300, 4999, 5000]
        for s in (0, 1000):
            res = run_walks(AllPlusWordSource(1), 5000, marks, range(s, s + 1))
            assert res.values[0].tolist() == [squarefree_count(m) for m in marks]
            assert res.changes[0].tolist() == [0, 0, 0, 0]

    def test_x_1(self):
        assert rmf_trace(SignOracle(123), 1).final_value == 1

    def test_against_trial_division_oracle(self):
        seed, idx = 12345, 3
        vals = np.cumsum([brute_f(seed, idx, n) for n in range(1, 1001)])
        tr = rmf_trace(SignOracle(seed, idx), 1000, checkpoints=[1, 10, 500])
        assert tr.final_value == vals[-1]
        assert tr.checkpoint_values == (vals[0], vals[9], vals[499])
        s = np.sign(vals)
        nz = s[s != 0]
        assert tr.sign_change_count == int(np.count_nonzero(nz[1:] != nz[:-1]))

    @pytest.mark.parametrize("min_segment", [2**20, 256])
    def test_minus_hook_equals_mertens(self, min_segment, monkeypatch):
        # a walk of several samples under the minus hook runs the hash walk's
        # XOR fold and big-prime scatter, a one-sample walk the lane path
        # (the sieve folds f(p) = -1 from the lane's words), and Mertens
        # reads mu from the sieve's parity; a MIN_SEGMENT of 256 cuts the
        # walk into 317 segments of isqrt(10^5) = 316
        from rmflab.sieve import mertens_trace

        monkeypatch.setattr(engine, "MIN_SEGMENT", min_segment)
        checkpoints = [100, 5000, 65536]
        tr = rmf_trace(SignOracle(0, hook="minus"), 10**5, checkpoints=checkpoints)
        mt = mertens_trace(10**5, checkpoints=checkpoints)
        assert tr.final_value == mt.final_value
        assert tr.sign_change_count == mt.sign_change_count
        assert tr.checkpoint_values == mt.checkpoint_values
        marks = [*checkpoints, 10**5]
        res = run_walks(RmfWordSource(0, hook="minus"), 10**5, marks, range(62, 66))
        want = [*mt.checkpoint_values, mt.final_value]
        assert all(row == want for row in res.values.tolist())
        assert all(row[-1] == mt.sign_change_count for row in res.changes.tolist())

    def test_checkpoint_out_of_range(self):
        with pytest.raises(ParameterError):
            rmf_trace(SignOracle(1), 10, checkpoints=[11])


class TestCheckpointGrid:
    """The normalized walk Y_n = M(floor(e^n x))/sqrt(e^n x) of the estimators."""

    def test_all_plus_matches_q(self, monkeypatch):
        monkeypatch.setattr(models, "RmfWordSource", AllPlusWordSource)
        y = _checkpoint_matrix(ExperimentPlan(master_seed=1, samples=3), 50.0, 3)
        for n in range(1, 4):
            u = math.floor(math.exp(n) * 50.0)
            assert np.all(y[:, n - 1] == squarefree_count(u) / math.sqrt(math.exp(n) * 50.0))

    def test_definition_n1_x2(self):
        # each row equals that sample's own trace at floor(e^n x), divided exactly
        assert math.floor(2 * math.e) == 5
        for x, N in ((2.0, 1), (30.0, 4)):
            y = _checkpoint_matrix(ExperimentPlan(master_seed=7, samples=70), x, N)
            for i in (0, 1, 63, 64, 69):
                tr = rmf_trace(SignOracle(7, i), grid_positions(x, N)[-1], grid_positions(x, N))
                want = [v / math.sqrt(math.exp(n) * x) for n, v in enumerate(tr.checkpoint_values, 1)]
                assert y[i].tolist() == want

    def test_second_moment_of_y_in_band(self):
        # exact E Y_n^2 = Q(floor(e^n x))/(e^n x) must lie in [3/pi^2, 1]
        for x in (40.0, 1000.0):
            for n in range(1, 6):
                u = math.floor(math.exp(n) * x)
                if math.exp(n) * x < 100:
                    continue
                val = squarefree_count(u) / (math.exp(n) * x)
                assert 3 / math.pi**2 <= val <= 1.0

    def test_parameter_errors(self):
        p = ExperimentPlan(master_seed=1, samples=2)
        with pytest.raises(ParameterError):
            _checkpoint_matrix(p, 0.2, 3)  # floor(e * 0.2) = 0 is no walk position
        with pytest.raises(ParameterError):
            _checkpoint_matrix(p, 10.0, 0)

    def test_budget_reports_required_size(self):
        with pytest.raises(ResourceError) as err:
            _checkpoint_matrix(ExperimentPlan(master_seed=1, samples=3), 1e6, 20)
        assert err.value.required == 3 * math.floor(math.exp(20) * 1e6)


class TestMoments:
    def test_second_moment_matches_q(self):
        # orthogonality: E M(x)^2 = Q(x); 4 bootstrap SEs at 2000 samples
        x = 1000
        res = collect_walks(
            ModelSpec("rmf"), x, [x], range(2000), 424242, census=False
        )
        sq = res.values[:, 0].astype(np.float64) ** 2
        est = bootstrap_estimate(sq, 424242, "test|m2")
        assert abs(est.point - squarefree_count(x)) <= 4 * est.se

    def test_cross_moment_matches_q_min(self):
        a, b = 300, 3000
        res = collect_walks(
            ModelSpec("rmf"), b, [a, b], range(3000), 3141, census=False
        )
        prod = res.values[:, 0].astype(np.float64) * res.values[:, 1].astype(np.float64)
        est = bootstrap_estimate(prod, 3141, "test|cross")
        assert abs(est.point - squarefree_count(a)) <= 4 * est.se
