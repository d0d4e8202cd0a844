import math

import numpy as np
import pytest
import sympy

from rmflab import census, engine
from rmflab.errors import ParameterError
from rmflab.sieve import (
    WHEEL_PRIMES,
    PrimeTable,
    fold_small_primes,
    mertens_trace,
    primes_up_to,
    segment_radical_data,
    squarefree_count,
)

from oracle import EDGE_SEGMENTS, factor_segment, mertens_walk, radical_reference


def brute_squarefree_count(x):
    count = 0
    for n in range(1, x + 1):
        d = 2
        ok = True
        while d * d <= n:
            if n % (d * d) == 0:
                ok = False
                break
            d += 1
        count += ok
    return count


class TestPrimes:
    def test_small(self):
        assert primes_up_to(10).primes.tolist() == [2, 3, 5, 7]
        assert primes_up_to(2).primes.tolist() == [2]

    def test_pi_of_one_million(self):
        assert primes_up_to(10**6).primes.size == 78498

    def test_strictly_increasing_and_prime(self):
        pt = primes_up_to(500)
        assert np.all(np.diff(pt.primes) > 0)
        assert all(sympy.isprime(int(p)) for p in pt.primes)

    @pytest.mark.parametrize("bad", [1, 0, -5, 2**40 + 1])
    def test_range_errors(self, bad):
        with pytest.raises(ParameterError):
            primes_up_to(bad)


class TestSquarefreeCount:
    def test_examples(self):
        assert squarefree_count(1) == 1
        assert [squarefree_count(x) for x in (2, 3, 4)] == [2, 3, 3]
        assert squarefree_count(10) == 7  # 1,2,3,5,6,7,10
        assert squarefree_count(20) == 13
        # Q(10^n) as tabulated in OEIS A071172
        assert squarefree_count(10**8) == 60_792_694
        assert squarefree_count(10**12) == 607_927_102_274

    def test_against_enumeration(self):
        for x in (2, 37, 100, 1000):
            assert squarefree_count(x) == brute_squarefree_count(x)

    def test_density_six_over_pi_squared(self):
        for x in (10**4, 10**5, 10**6):
            assert abs(squarefree_count(x) / x - 6 / math.pi**2) <= 0.01

    def test_range_error(self):
        with pytest.raises(ParameterError):
            squarefree_count(0)


class TestMobius:
    def test_against_sympy(self):
        # the mu(d) that squarefree_count reads, from one segment
        mu = segment_radical_data(1, 1501, primes_up_to(38)).mobius()
        assert mu.tolist() == [int(sympy.mobius(n)) for n in range(1, 1501)]


class TestFactorSegment:
    def test_ten_eleven(self):
        # sqrt(hi-1) = 3, so 5 is the prime residual of 10, not a listed factor
        primes = primes_up_to(100)
        seg = factor_segment(10, 12, primes)
        r10 = seg.record(10)
        assert r10.prime_factors == (2,)
        assert r10.cofactor == 5
        assert r10.squarefree
        r11 = seg.record(11)
        assert r11.prime_factors == ()
        assert r11.cofactor == 11
        assert r11.squarefree

    def test_four_not_squarefree(self):
        seg = factor_segment(4, 5, primes_up_to(10))
        assert not seg.record(4).squarefree

    def test_large_prime_cofactor(self):
        seg = factor_segment(91, 92, primes_up_to(9))
        r = seg.record(91)
        assert r.prime_factors == (7,)
        assert r.cofactor == 13

    def test_cofactor_prime_or_one_even_off_squarefree(self):
        primes = primes_up_to(100)
        seg = factor_segment(2, 200, primes)
        for n in range(2, 200):
            rec = seg.record(n)
            assert rec.cofactor == 1 or sympy.isprime(rec.cofactor)
            rec.validate()

    def test_squarefree_flags_sum_matches_q(self):
        primes = primes_up_to(1000)
        for lo, hi in ((1, 300), (500, 1000), (123, 456)):
            seg = factor_segment(lo, hi, primes)
            want = squarefree_count(hi - 1) - (squarefree_count(lo - 1) if lo > 1 else 0)
            assert int(seg.squarefree.sum()) == want

    def test_insufficient_table(self):
        with pytest.raises(ParameterError):
            factor_segment(1, 10**6, primes_up_to(10))


class TestSegmentRadicalData:
    def test_parity_matches_sympy_omega_on_squarefrees(self):
        mu = segment_radical_data(2, 500, primes_up_to(100)).mobius()
        assert mu.tolist() == [int(sympy.mobius(n)) for n in range(2, 500)]

    def test_squarefree_flags_match_sympy(self):
        primes = primes_up_to(100)
        data = segment_radical_data(2, 500, primes)
        for n in range(2, 500):
            want = all(e == 1 for e in sympy.factorint(n).values())
            assert bool(data.squarefree[n - 2]) == want


@pytest.mark.parametrize("group", sorted(EDGE_SEGMENTS))
def test_segment_radical_data_matches_oracle(group):
    for lo, hi in EDGE_SEGMENTS[group]:
        # a table reaching past isqrt(hi - 1): the sieve must ignore the excess
        primes = primes_up_to(max(2, 2 * math.isqrt(hi - 1)))
        sqf, big, big_prime, parity = radical_reference(lo, hi, primes)
        data = segment_radical_data(lo, hi, primes)
        assert np.array_equal(data.squarefree, sqf), (lo, hi)
        mu = data.mobius()
        assert mu.dtype == np.int8
        assert np.array_equal(mu, np.where(sqf, 1 - 2 * parity.astype(np.int8), 0)), (lo, hi)
        got_big, got_big_prime = data.big_primes()
        assert np.array_equal(got_big, big), (lo, hi)
        assert np.array_equal(got_big_prime, big_prime), (lo, hi)
        assert got_big_prime.dtype == (np.int32 if hi <= 1 << 31 else np.int64)


def test_prime_signs_give_f():
    # with f(p) folded in, f_values is the multiplicative f on squarefree n
    lo, hi = 9000, 11000
    primes = primes_up_to(hi)  # every big prime of the segment has a sign
    f_p = np.random.default_rng(5).choice(np.array([-1, 1], dtype=np.int8), primes.primes.size)
    data = segment_radical_data(lo, hi, primes, f_p)
    big, big_prime = data.big_primes()
    got = data.f_values(big, f_p[np.searchsorted(primes.primes, big_prime)] < 0)
    sign = dict(zip(primes.primes.tolist(), f_p.tolist()))
    want = [
        0 if max(e.values()) > 1 else math.prod(sign[q] for q in e)
        for e in (sympy.factorint(n) for n in range(lo, hi))
    ]
    assert got.dtype == np.int8 and got.tolist() == want


def fold_resized(ufunc, values, small, lo, hi):
    """fold_small_primes with its wheel pattern tiled by ``np.resize``."""
    k = min(small.size, len(WHEEL_PRIMES))
    pattern = np.full(math.prod(WHEEL_PRIMES[:k]), ufunc.identity, dtype=values.dtype)
    for p, v in zip(WHEEL_PRIMES[:k], values):
        pattern[::p] = ufunc(pattern[::p], v)
    out = np.resize(np.roll(pattern, -(lo % pattern.size)), hi - lo)
    for p, v in zip(small[k:].tolist(), values[k:]):
        out[(-lo) % p :: p] = ufunc(out[(-lo) % p :: p], v)
    return out


@pytest.mark.parametrize(
    "lo, hi, limit",
    [(30029, 30032, 200), (30025, 30030 + 70_001, 200), (60059, 150_101, 400),
     (1, 30031, 200), (29, 95, 5), (17, 16_000, 12)],
)
def test_fold_into_out_matches_resized_pattern(lo, hi, limit):
    # tiles that start mid-period, cross the wheel period 30030, are shorter
    # than it, or come from a smaller wheel (period 30 or 2310)
    small = primes_up_to(limit).primes
    cases = [(np.multiply, (-small).astype(np.int64)),
             (np.bitwise_xor, np.arange(1, small.size + 1, dtype=np.uint64) * np.uint64(977))]
    for ufunc, values in cases:
        want = fold_resized(ufunc, values, small, lo, hi)
        out = np.full(hi - lo, 7, dtype=values.dtype)
        got = fold_small_primes(ufunc, values, small, lo, hi, out=out)
        assert got is out and got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(fold_small_primes(ufunc, values, small, lo, hi), want)


def assert_same_segment(got, want):
    assert (got.lo, got.hi) == (want.lo, want.hi)
    for name in ("squarefree", "small", "radical", "odd", "has_big"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (got.lo, name)
    for a, b in zip(got.big_primes(), want.big_primes()):
        assert a.dtype == b.dtype and np.array_equal(a, b), got.lo


@pytest.mark.parametrize(
    "edges",
    [(1, 1001, 2001, 2500),  # the first segment compares with n, the last is shorter
     (10**6 - 3000, 10**6 - 2500, 10**6 + 1000, 10**6 + 1500),  # a longer second segment
     (2**31 - 4000, 2**31 - 2000, 2**31, 2**31 + 2000, 2**31 + 2500)],  # int32, then int64
)
def test_buffered_segments_equal_fresh_ones(edges):
    primes = primes_up_to(math.isqrt(edges[-1] - 1) + 1)
    rng = np.random.default_rng(11)
    f_p = rng.choice(np.array([-1, 1], dtype=np.int8), primes.primes.size)
    for prime_signs in (None, f_p):
        buffers = {}
        for lo, hi in zip(edges, edges[1:]):
            got = segment_radical_data(lo, hi, primes, prime_signs, buffers)
            want = segment_radical_data(lo, hi, primes, prime_signs)
            assert got.radical.dtype == (np.int32 if hi <= 1 << 31 else np.int64)
            assert_same_segment(got, want)
            big, _ = want.big_primes()
            minus = rng.random(big.size) < 0.5
            assert np.array_equal(got.f_values(big, minus), want.f_values(big, minus))
            assert np.array_equal(got.mobius(), want.mobius())


def test_buffers_are_refilled_in_place():
    # a buffered segment's arrays are valid until the next call given the
    # same dict, which writes into the same memory; unbuffered calls share none
    primes = primes_up_to(1500)
    buffers = {}
    first = segment_radical_data(10**6, 10**6 + 4096, primes, buffers=buffers)
    first_mu = first.mobius()
    second = segment_radical_data(10**6 + 4096, 10**6 + 8000, primes, buffers=buffers)
    fresh = segment_radical_data(10**6 + 4096, 10**6 + 8000, primes)
    for name in ("squarefree", "radical", "odd", "has_big"):
        assert np.shares_memory(getattr(first, name), getattr(second, name)), name
        assert not np.shares_memory(getattr(fresh, name), getattr(second, name)), name
    assert np.shares_memory(first_mu, second.mobius())
    assert not np.shares_memory(fresh.mobius(), second.mobius())


class TestMertens:
    def test_x_10(self):
        tr = mertens_trace(10)
        assert tr.final_value == -1
        assert tr.sign_change_count == 1

    def test_x_1(self):
        tr = mertens_trace(1)
        assert tr.final_value == 1
        assert tr.sign_change_count == 0

    def test_final_values_match_mu_sums(self):
        # one trace checkpointed at every integer u <= 1e4 against an
        # independent per-integer mu accumulation
        partial = mertens_walk(10**4)
        tr = mertens_trace(10**4, checkpoints=list(range(1, 10**4 + 1)))
        assert list(tr.checkpoint_values) == partial.tolist()

    def test_known_values(self):
        # classical values of the Mobius partial sums
        assert mertens_trace(10**4).final_value == -23
        assert mertens_trace(10**5).final_value == -48

    def test_checkpoints(self):
        tr = mertens_trace(100, checkpoints=[1, 10, 50])
        partial = mertens_walk(100)
        assert tr.checkpoint_values == (partial[0], partial[9], partial[49])

    def test_checkpoints_inside_skipped_chunks(self, monkeypatch):
        # chunks of 16 steps and segments of 1024: below 3e4, M stays 16 or
        # more from zero for long stretches, so many chunks are skipped
        monkeypatch.setattr(census, "_CHUNK", 16)
        monkeypatch.setattr(engine, "MIN_SEGMENT", 1024)
        scanned = []

        def spy(values, carry_sign):
            scanned.append(values.size)
            return count(values, carry_sign)

        count = census.count_changes_chunk
        monkeypatch.setattr(census, "count_changes_chunk", spy)
        x = 30_000
        m = mertens_walk(x)
        starts = np.arange(17, x + 1, 16)  # chunk starts a, with M(a-1) = m[a-2]
        far = starts[np.abs(m[starts - 2]) >= 16]
        # a checkpoint inside every 80th far chunk, each at its own offset
        points = [int(a) + k % 16 for k, a in enumerate(far[::80])]
        tr = mertens_trace(x, checkpoints=points)
        assert list(tr.checkpoint_values) == m[np.array(points) - 1].tolist()
        s = np.sign(m)
        nz = s[s != 0]
        assert tr.sign_change_count == int(np.count_nonzero(nz[1:] != nz[:-1]))
        assert tr.final_value == m[-1]
        assert sum(scanned) < x  # x when every segment is walked densely

    def test_int32_and_int64_paths_agree(self, monkeypatch):
        # the tally takes the partial sums in int32 below census.INT32_CEILING
        # and in int64 past it; 0 sends the whole walk down the int64 path
        widths = set()

        def spy(values, carry_sign):
            widths.add(values.dtype)
            return count(values, carry_sign)

        count = census.count_changes_chunk
        monkeypatch.setattr(census, "count_changes_chunk", spy)
        points = [1, 3, 1000, 500_000, 999_999]
        narrow = mertens_trace(10**6, checkpoints=points)
        assert np.dtype(np.int32) in widths and np.dtype(np.int64) not in widths
        widths.clear()
        monkeypatch.setattr(census, "INT32_CEILING", 0)
        wide = mertens_trace(10**6, checkpoints=points)
        assert np.dtype(np.int64) in widths and np.dtype(np.int32) not in widths
        assert (wide.sign_change_count, wide.final_value) == (1652, 212)
        assert wide == narrow

    def test_census_matches_direct_count(self):
        s = np.sign(mertens_walk(5000))
        nz = s[s != 0]
        naive = int(np.count_nonzero(nz[1:] != nz[:-1]))
        assert mertens_trace(5000).sign_change_count == naive
