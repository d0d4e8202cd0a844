"""Deterministic number-theoretic kernels.

Everything here is exact integer arithmetic: prime tables, segmented
radical/squarefree data, the squarefree counting function

    Q(x) = #{n <= x : n squarefree} = sum_{d <= sqrt(x)} mu(d) * floor(x/d^2),

and a streaming census of the Mobius partial sums (the Mertens walk).
Segments are sized ``max(2^20, isqrt(x))``: cache friendly, and memory
stays bounded for any x up to the 1e11 design ceiling.

The segmented walkers here are written independently of the sampling
engine so the two can cross-check each other (the Mertens walk equals an
all-minus-signs multiplicative walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .census import count_to_marks
from .engine import PartialSumTrace, WalkResult, segment_length_for, walk_inputs
from .errors import InternalError, ParameterError

MAX_PRIME_LIMIT = 1 << 40


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray

    def __len__(self) -> int:
        return int(self.primes.size)


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes. Valid for 2 <= limit <= 2^40."""
    if not isinstance(limit, (int, np.integer)) or limit < 2 or limit > MAX_PRIME_LIMIT:
        raise ParameterError(f"prime limit must be in [2, 2^40], got {limit!r}")
    limit = int(limit)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(sieve).astype(np.int64))


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) = 0 by convention)."""
    if limit < 1:
        raise ParameterError("mobius sieve needs limit >= 1")
    mu = np.ones(limit + 1, dtype=np.int8)
    prod = np.ones(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if mu[p] != 0 and prod[p] == 1:  # p survived marking, hence prime
            mu[p::p] *= -1
            prod[p::p] *= p
            mu[p * p :: p * p] = 0
    # a residual factor > sqrt(limit) is a single large prime: one more -1
    large = prod < np.arange(limit + 1, dtype=np.int64)
    mu[large] *= -1
    mu[0] = 0
    return mu


def squarefree_count(x: int) -> int:
    """Q(x): number of squarefree integers <= x (exact)."""
    if x < 1:
        raise ParameterError(f"squarefree_count needs x >= 1, got {x}")
    x = int(x)
    r = isqrt(x)
    mu = mobius_sieve(r)
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(mu[1:].astype(np.int64) * (x // (d * d))))


@dataclass
class SegmentData:
    """Radical structure of the integers in [lo, hi) against small primes.

    ``cofactor`` is n divided by the product of its distinct prime factors
    <= sqrt(hi-1); for squarefree n it is the (single) large prime factor
    or 1.  ``omega_parity`` (filled on request) is the parity of the number
    of distinct prime factors; like ``cofactor`` it is only meaningful on
    squarefree entries, which is all the multiplicative walks consume.
    """

    lo: int
    hi: int
    squarefree: np.ndarray
    cofactor: np.ndarray
    omega_parity: np.ndarray | None = None


def segment_radical_data(
    lo: int, hi: int, primes: PrimeTable, want_parity: bool = False
) -> SegmentData:
    if not (1 <= lo < hi):
        raise ParameterError(f"segment [{lo}, {hi}) is empty or starts below 1")
    lim = isqrt(hi - 1)
    if primes.limit < lim:
        raise ParameterError(
            f"prime table limit {primes.limit} < isqrt(hi-1) = {lim}"
        )
    L = hi - lo
    prod = np.ones(L, dtype=np.int64)
    sqf = np.ones(L, dtype=bool)
    counts = np.zeros(L, dtype=np.int8) if want_parity else None
    for p in primes.primes:
        p = int(p)
        if p > lim:
            break
        o = (-lo) % p
        prod[o::p] *= p
        if counts is not None:
            counts[o::p] += 1
        pp = p * p
        if pp < hi:
            sqf[(-lo) % pp :: pp] = False
    n = np.arange(lo, hi, dtype=np.int64)
    cof = n // prod
    parity = None
    if want_parity:
        parity = ((counts + (cof > 1)) & 1).astype(bool)
    return SegmentData(lo=lo, hi=hi, squarefree=sqf, cofactor=cof, omega_parity=parity)


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
                raise InternalError(f"{p} recorded but does not divide {self.n}")
            if self.cofactor % p == 0:
                raise InternalError(f"cofactor {self.cofactor} shares factor {p}")
            rad *= p
        if self.cofactor > 1 and self.n % self.cofactor != 0:
            raise InternalError(f"cofactor {self.cofactor} does not divide {self.n}")
        if self.squarefree and rad * self.cofactor != self.n:
            raise InternalError(
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


def mertens_trace(
    x: int, checkpoints: list[int] | None = None, *, budget: int | None = None
) -> PartialSumTrace:
    """Streaming partial sums of mu(n) for n <= x with a sign-change census.

    Written directly on the segmented radical data (no sampling engine), so
    it can serve as an independent cross-check of the multiplicative walk
    with all signs set to -1.  ``budget`` bounds the x steps as it bounds
    one sample's walk; the default is unbounded.
    """
    reqs = sorted(set(int(c) for c in (checkpoints or [])))
    x, marks, _ = walk_inputs(x, [*reqs, x], [0], budget)
    primes = primes_up_to(max(2, isqrt(x)))
    seg = segment_length_for(x)
    values = np.zeros((1, marks.size), dtype=np.int64)
    changes = np.zeros((1, marks.size), dtype=np.int64)
    total = 0
    carry = 0
    acc = 0
    lo = 1
    while lo <= x:
        hi = min(lo + seg, x + 1)
        data = segment_radical_data(lo, hi, primes, want_parity=True)
        mu = np.where(
            data.squarefree, 1 - 2 * data.omega_parity.astype(np.int8), 0
        ).astype(np.int8)
        m = np.cumsum(mu, dtype=np.int64)
        m += total
        carry, acc = count_to_marks(m, lo, marks, carry, acc, values[0], changes[0])
        total = int(m[-1])
        lo = hi
    res = WalkResult(np.zeros(1, dtype=np.int64), marks, values, changes, "mertens")
    return PartialSumTrace.of_walk(res, reqs, "mertens")
