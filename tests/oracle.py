"""Scalar reference oracle for the sieve, the signs and the walks.

``factor_segment`` factors every integer of a segment by repeated
division, independently of ``rmflab.sieve``'s radical sieve, and
``f_value`` evaluates one sample of f at one integer from such a record
through the scalar sign word ``sign_word``, built on ``rmflab.signs.mix64``.
``harmonic_walks`` sums the r_n / sqrt(n) walks in one sequential pass each.
``AllPlusOracle`` and ``AllPlusWordSource`` set f(p) = +1 on every prime,
so f is the squarefree indicator and M(u) = Q(u).  ``iid_expected_v`` and
``exact_rmf_law`` give exact laws of the iid and rmf walks, in closed form
and by enumeration.  The tests hold the package's vectorized paths
against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from rmflab import signs
from rmflab.errors import ParameterError
from rmflab.rmf import RmfWordSource, SignOracle
from rmflab.sieve import PrimeTable


@dataclass(frozen=True)
class FactorRecord:
    """Factorization record of a single integer from a FactorSegment."""

    n: int
    prime_factors: tuple[int, ...]
    cofactor: int
    squarefree: bool

    def validate(self) -> None:
        rad = 1
        for p in self.prime_factors:
            if self.n % p != 0:
                raise AssertionError(f"{p} recorded but does not divide {self.n}")
            if self.cofactor % p == 0:
                raise AssertionError(f"cofactor {self.cofactor} shares factor {p}")
            rad *= p
        if self.cofactor > 1 and self.n % self.cofactor != 0:
            raise AssertionError(f"cofactor {self.cofactor} does not divide {self.n}")
        if self.squarefree and rad * self.cofactor != self.n:
            raise AssertionError(
                f"squarefree {self.n} != product of factors {rad} * {self.cofactor}"
            )


@dataclass
class FactorSegment:
    """Per-integer factorization data over [lo, hi).

    Distinct prime factors <= sqrt(hi-1) are stored in CSR layout; the
    cofactor is the residual after dividing out *all* powers of those
    primes, hence always 1 or a single prime > sqrt(hi-1).
    """

    lo: int
    hi: int
    squarefree: np.ndarray
    cofactor: np.ndarray
    factor_indptr: np.ndarray
    factor_values: np.ndarray

    def factors_of(self, n: int) -> tuple[int, ...]:
        i = self._index(n)
        return tuple(
            int(v) for v in self.factor_values[self.factor_indptr[i] : self.factor_indptr[i + 1]]
        )

    def record(self, n: int) -> FactorRecord:
        i = self._index(n)
        return FactorRecord(
            n=n,
            prime_factors=self.factors_of(n),
            cofactor=int(self.cofactor[i]),
            squarefree=bool(self.squarefree[i]),
        )

    def _index(self, n: int) -> int:
        if not (self.lo <= n < self.hi):
            raise ParameterError(f"{n} outside segment [{self.lo}, {self.hi})")
        return n - self.lo


def factor_segment(lo: int, hi: int, primes: PrimeTable) -> FactorSegment:
    """Full factorization records for [lo, hi); cofactor is prime or 1."""
    if not (1 <= lo < hi):
        raise ParameterError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    lim = isqrt(hi - 1)
    if primes.limit < lim:
        raise ParameterError(
            f"prime table limit {primes.limit} insufficient: need >= {lim}"
        )
    L = hi - lo
    rem = np.arange(lo, hi, dtype=np.int64)
    sqf = np.ones(L, dtype=bool)
    hits: list[tuple[int, np.ndarray]] = []
    for p in primes.primes:
        p = int(p)
        if p > lim:
            break
        o = (-lo) % p
        idx = np.arange(o, L, p, dtype=np.int64)
        if idx.size == 0:
            continue
        hits.append((p, idx))
        sub = rem[idx]
        sub //= p
        again = sub % p == 0
        if again.any():
            sqf[idx[again]] = False
            while again.any():
                sub[again] //= p
                again = sub % p == 0
        rem[idx] = sub
    counts = np.zeros(L, dtype=np.int32)
    for _, idx in hits:
        counts[idx] += 1
    indptr = np.zeros(L + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    values = np.zeros(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for p, idx in hits:
        values[cursor[idx]] = p
        cursor[idx] += 1
    return FactorSegment(
        lo=lo,
        hi=hi,
        squarefree=sqf,
        cofactor=rem,
        factor_indptr=indptr,
        factor_values=values,
    )


@dataclass(frozen=True)
class AllPlusOracle:
    """The sign map f(p) = +1 on every prime, read by ``sign_of_prime``."""

    master_seed: int
    sample_index: int = 0
    hook = "plus"


@dataclass(frozen=True)
class AllPlusWordSource(RmfWordSource):
    """Engine source of the all-plus f: every lane steps +1 on each squarefree n."""

    def block_words(self, ctx, block: int):
        sqf = ctx["squarefree"]
        return np.zeros(sqf.size, dtype=np.uint64), sqf


def sign_word(key: int, value: int) -> int:
    """64 lane sign bits for ``value`` under a block key (pure Python).

    Bit j is the sign bit of sample ``64*block + j``: 0 encodes +1, 1
    encodes -1.
    """
    return signs.mix64(key ^ signs.mix64((value * signs.GOLDEN) & signs.MASK64))


def sign_words_array(key: int, values: np.ndarray) -> np.ndarray:
    """``sign_word`` for each value, hashed with ``signs.mix64_array``."""
    v = values.astype(np.uint64, copy=True)
    v *= np.uint64(signs.GOLDEN)
    return signs.mix64_array(signs.mix64_array(v) ^ np.uint64(key))


def sign_bit_to_int(word: int, lane: int) -> int:
    """Extract lane's sign from a word: returns +1 or -1."""
    return 1 - 2 * ((word >> lane) & 1)


def harmonic_walks(master_seed: int, samples: int, x_end: int) -> np.ndarray:
    """M(u) for u in [1, x_end] of the walks sum_{n<=u} r_n / sqrt(n).

    Row s is sample s.  r_n is its index-keyed sign from ``sign_word``,
    hashed once per (block, n) and shared by the block's lanes; each walk
    is one ``np.cumsum``, so every value is the plain sequential float sum.
    """
    weights = 1.0 / np.sqrt(np.arange(1, x_end + 1, dtype=np.float64))
    out = np.empty((samples, x_end))
    for block in range((samples + 63) // 64):
        key = signs.block_key(master_seed, block, signs.SALT_INDEX)
        words = [sign_word(key, n) for n in range(1, x_end + 1)]
        for lane in range(min(64, samples - 64 * block)):
            r = np.array([sign_bit_to_int(word, lane) for word in words])
            out[64 * block + lane] = np.cumsum(r * weights)
    return out


def mertens_walk(x: int) -> np.ndarray:
    """M(u) = sum_{n<=u} mu(n) for u in [1, x], with mu from ``factor_segment``."""
    seg = factor_segment(1, x + 1, PrimeTable(isqrt(x), _primes_up_to(isqrt(x))))
    omega = np.diff(seg.factor_indptr) + (seg.cofactor > 1)
    mu = np.where(seg.squarefree, 1 - 2 * (omega % 2), 0)
    return np.cumsum(mu)


def iid_expected_v(x: int) -> Fraction:
    """E V(x) of the simple +-1 walk under the zero-skip policy, exactly.

    A change can only complete at step 2k + 1 after a visit to 0 at step
    2k, and then does so with probability 1/2 (the step leaving 0 is
    independent of the last nonzero sign), while P(S_2k = 0) = C(2k, k)/4^k
    (Feller, Vol. 1, Ch. III).  So E V(x) = 1/2 sum_{k=1}^{floor((x-1)/2)}
    C(2k, k)/4^k.
    """
    return Fraction(1, 2) * sum(Fraction(comb(2 * k, k), 4**k) for k in range(1, (x - 1) // 2 + 1))


def iid_expected_v_float(x: int) -> float:
    """``iid_expected_v`` in floats, by c_k = c_(k-1) (2k - 1)/(2k) for c_k = C(2k, k)/4^k.

    At x = 2^20 the exact fractions hold integers of about a million bits.
    """
    c, total = 1.0, 0.0
    for k in range(1, (x - 1) // 2 + 1):
        c *= (2 * k - 1) / (2 * k)
        total += c
    return total / 2


@dataclass(frozen=True)
class ExactRmfLaw:
    """Exact moments of the Rademacher multiplicative walk at one x."""

    expected_v: Fraction  # E V(x), zero-skip sign changes in [1, x]
    abs_mean: Fraction  # E |M(x)|
    second_moment: Fraction  # E M(x)^2
    change_after: Fraction  # P(a change completes at some u in (after, x])


def exact_rmf_law(x: int, after: int = 0) -> ExactRmfLaw:
    """The law of (V(x), M(x)) for f, by enumerating every prime-sign pattern.

    M(u) for u <= x depends only on f(p) for p <= x, so the 2^pi(x)
    patterns are equally likely and exhaust the law.  Each n <= x is
    factored by trial division (squarefree n only; f(1) = 1, f(n) = 0
    otherwise), and V is counted by a plain forward fill of the last
    nonzero sign, one integer at a time across all patterns.  A change
    completes in the window (after, x] when V(x) > V(after).  Nothing here
    uses ``rmflab.sieve`` or ``rmflab.census``.
    """
    primes = [int(p) for p in _primes_up_to(x)]
    patterns = np.arange(1 << len(primes), dtype=np.int64)
    # column j: f(p_j) of every pattern, -1 where bit j of the pattern is set
    f_prime = 1 - 2 * ((patterns[:, None] >> np.arange(len(primes))) & 1)
    m = np.zeros(patterns.size, dtype=np.int64)
    last = np.zeros(patterns.size, dtype=np.int64)
    changes = np.zeros(patterns.size, dtype=np.int64)
    before = changes.copy()
    for n in range(1, x + 1):
        factors = [j for j, p in enumerate(primes) if n % p == 0]
        if all(n % (primes[j] ** 2) for j in factors):
            m += np.prod(f_prime[:, factors], axis=1)
        s = np.sign(m)
        changes += (s != 0) & (last != 0) & (s != last)
        last = np.where(s != 0, s, last)
        if n == after:
            before = changes.copy()
    total = patterns.size
    return ExactRmfLaw(
        expected_v=Fraction(int(changes.sum()), total),
        abs_mean=Fraction(int(np.abs(m).sum()), total),
        second_moment=Fraction(int((m * m).sum()), total),
        change_after=Fraction(int((changes > before).sum()), total),
    )


def _primes_up_to(n: int) -> np.ndarray:
    """Primes <= n by trial division (independent of ``rmflab.sieve``)."""
    return np.array([p for p in range(2, n + 1) if all(p % q for q in range(2, isqrt(p) + 1))],
                    dtype=np.int64)


def _debug_check_prime(p: int) -> None:
    if p < 2:
        raise ParameterError(f"{p} is not prime")
    if p in (2, 3):
        return
    if p % 2 == 0:
        raise ParameterError(f"{p} is not prime")
    bound = min(isqrt(p), 1_000_000)  # cheap check only; skip for huge p
    d = 3
    while d <= bound:
        if p % d == 0:
            raise ParameterError(f"{p} is not prime")
        d += 2


def sign_of_prime(oracle: SignOracle, p: int) -> int:
    """f(p) in {+1, -1}; pure in (master_seed, sample_index, p)."""
    if __debug__:
        _debug_check_prime(int(p))
    if oracle.hook == "plus":
        return 1
    if oracle.hook == "minus":
        return -1
    block = oracle.sample_index >> 6
    lane = oracle.sample_index & 63
    key = signs.block_key(oracle.master_seed, block, signs.SALT_PRIME)
    return sign_bit_to_int(sign_word(key, int(p)), lane)


def f_value(oracle: SignOracle, record: FactorRecord) -> int:
    """f(n) from a factorization record: 0 off squarefrees, else the product."""
    record.validate()
    if not record.squarefree:
        return 0
    out = 1
    for p in record.prime_factors:
        out *= sign_of_prime(oracle, p)
    if record.cofactor > 1:
        out *= sign_of_prime(oracle, record.cofactor)
    return out


WHEEL_PERIOD = 30030  # 2 * 3 * 5 * 7 * 11 * 13

# Segments [lo, hi) at the edges of the sieve's wheel pre-sieve, by group:
# every hi up to 170, where fewer than six wheel primes are <= isqrt(hi - 1);
# lo at and next to multiples of the wheel period, with segments longer than
# it; one segment near 1e8, with squares both below and above its length;
# and segments ending at, straddling and starting at 2^31, where the signed
# radical product switches from int32 to int64.
TWO_POW_31 = 1 << 31
EDGE_SEGMENTS = {
    "below_170": [(1, hi) for hi in range(2, 171)]
    + [(lo, hi) for lo in (2, 7, 30, 97, 150) for hi in (lo + 1, lo + 13, 171)],
    "wheel_period": [
        (m * WHEEL_PERIOD + d, m * WHEEL_PERIOD + d + 40_000)
        for m in (1, 2, 33)
        for d in (-1, 0, 1)
    ],
    "near_1e8": [(10**8 - (1 << 16), 10**8 + 1)],
    "int32_ceiling": [
        (TWO_POW_31 - (1 << 15), TWO_POW_31),
        (TWO_POW_31 - (1 << 14), TWO_POW_31 + (1 << 14)),
        (TWO_POW_31, TWO_POW_31 + (1 << 15)),
    ],
}


def radical_reference(lo: int, hi: int, primes: PrimeTable):
    """(squarefree, big, big_prime, omega parity) of [lo, hi) from ``factor_segment``.

    ``big`` indexes the squarefree n with a prime factor > isqrt(hi - 1) and
    ``big_prime`` is that factor; the parity counts all distinct factors.
    """
    seg = factor_segment(lo, hi, primes)
    has_big = seg.cofactor > 1
    big = np.flatnonzero(seg.squarefree & has_big)
    parity = ((np.diff(seg.factor_indptr) + has_big) & 1).astype(bool)
    return seg.squarefree, big, seg.cofactor[big], parity


def words_reference(lo: int, hi: int, primes: PrimeTable, key: int) -> np.ndarray:
    """XOR of ``sign_words_array`` over the distinct prime factors of each n."""
    seg = factor_segment(lo, hi, primes)
    rows = np.repeat(np.arange(hi - lo), np.diff(seg.factor_indptr))
    words = np.zeros(hi - lo, dtype=np.uint64)
    np.bitwise_xor.at(words, rows, sign_words_array(key, seg.factor_values))
    big = seg.cofactor > 1
    words[big] ^= sign_words_array(key, seg.cofactor[big])
    return words
