"""Deterministic number-theoretic kernels.

Everything here is exact integer arithmetic: prime tables, segmented
radical/squarefree data (one shape, :class:`SegmentData`, with two views:
f(n) and the big-prime split), the squarefree counting function

    Q(x) = #{n <= x : n squarefree} = sum_{d <= sqrt(x)} mu(d) * floor(x/d^2),

and a streaming census of the Mobius partial sums (the Mertens walk).
Segments are sized ``max(2^20, isqrt(x))``: fixed and cache friendly up
to x = 2^40, then growing like sqrt(x), as does the prime table of a walk
to x (primes up to isqrt(x)).  No ceiling on x is enforced here beyond
``walk_inputs``'s x < 2^63; a walk's step budget, when given, refuses first.

The radical sieve folds a sign f(p) into each small prime p, -1 by
default: a squarefree n's f(n) is then the sign of the fold times f of
its big prime, if any, so one formula (:meth:`SegmentData.f_values`)
gives mu, or one sample's multiplicative function when the sieve is given
that sample's prime signs.  A walk hands the sieve one dict of buffers for
all of its segments, and the sieve refills them instead of allocating
(and first touching) segment-sized arrays each time.

The Mertens walk cross-checks the sampling engine: it equals the
multiplicative walk with every sign set to -1.  It shares the engine's
request checks (``walk_inputs``), segment length (``segment_length_for``)
and ``PartialSumTrace``, and is one row of a :class:`census.Tally` fed
segment by segment to ``census.walk_steps``, as an engine lane is fed
piece by piece; it has no sign words, lane decode or partial-sum buffer
of its own: each mu(n) comes straight from :meth:`SegmentData.mobius`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .census import Tally, walk_steps
from .engine import (
    PartialSumTrace,
    WalkResult,
    segment_length_for,
    walk_inputs,
)
from .errors import ParameterError

MAX_PRIME_LIMIT = 1 << 40


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: np.ndarray


def primes_up_to(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over one bool array of limit + 1 bytes.

    The check admits 2 <= limit <= 2^40, but memory binds far sooner: the
    limit of 2^40 would need about 1 TB.  A walk to x asks for isqrt(x).
    """
    if not isinstance(limit, (int, np.integer)) or limit < 2 or limit > MAX_PRIME_LIMIT:
        raise ParameterError(f"prime limit must be in [2, 2^40], got {limit!r}")
    limit = int(limit)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(sieve).astype(np.int64))


def squarefree_count(x: int) -> int:
    """Q(x): number of squarefree integers <= x (exact), with mu(d) sieved for d <= sqrt(x)."""
    if x < 1:
        raise ParameterError(f"squarefree_count needs x >= 1, got {x}")
    x = int(x)
    r = isqrt(x)
    mu = segment_radical_data(1, r + 1, primes_up_to(max(2, isqrt(r)))).mobius()
    d = np.arange(1, r + 1, dtype=np.int64)
    return int(np.sum(mu.astype(np.int64) * (x // (d * d))))


WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)


def fold_small_primes(ufunc: np.ufunc, values: np.ndarray, small: np.ndarray, lo: int, hi: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Fold ``ufunc`` over the small prime factors of each n in [lo, hi).

    ``small`` holds the primes from 2 up to some limit, ascending, and
    ``values[j]`` belongs to ``small[j]``.  Entry n - lo starts at
    ``ufunc.identity`` and is folded with ``values[j]`` for each ``small[j]``
    dividing n; the result has the dtype of ``values``, and is written into
    ``out`` (hi - lo entries of that dtype, overwritten) when given.  The
    first (up to six) small primes are the wheel primes 2..13: they are
    folded into one period of a per-residue pattern, which is tiled over
    the segment.  Every later small prime takes one strided pass.
    """
    k = min(small.size, len(WHEEL_PRIMES))
    pattern = np.full(math.prod(WHEEL_PRIMES[:k]), ufunc.identity, dtype=values.dtype)
    for p, v in zip(WHEEL_PRIMES[:k], values):
        view = pattern[::p]
        ufunc(view, v, out=view)
    n = hi - lo
    if out is None:
        out = np.empty(n, dtype=values.dtype)
    # entry i is pattern[(lo + i) % period]: one period, then doubling copies
    period = pattern.size
    first = min(n, period)
    out[:first] = np.roll(pattern, -(lo % period))[:first]
    done = first
    while done < n:
        step = min(done, n - done)
        out[done : done + step] = out[:step]
        done += step
    for o, p, v in zip(((-lo) % small[k:]).tolist(), small[k:].tolist(), values[k:]):
        view = out[o::p]
        ufunc(view, v, out=view)
    return out


def _empty(buffers: dict | None, name: str, n: int, dtype) -> np.ndarray:
    """n uninitialised entries of ``dtype``: a fresh array, or a view of
    ``buffers[name]``, which is (re)made when it is short or of another dtype."""
    if buffers is None:
        return np.empty(n, dtype=dtype)
    buf = buffers.get(name)
    if buf is None or buf.size < n or buf.dtype != dtype:
        buf = buffers[name] = np.empty(n, dtype=dtype)
    return buf[:n]


@dataclass
class SegmentData:
    """Radical structure of the integers in [lo, hi) against small primes.

    Small primes are those <= sqrt(hi-1); a squarefree n is the product of
    its small prime factors and at most one big prime.  Every field is
    filled on every call: ``squarefree``; ``small``, the small primes,
    ascending, for :func:`fold_small_primes`; ``radical``, the product of
    n's small prime factors, int32 when hi <= 2^31 and int64 above;
    ``odd``, whether the product of the sieve's prime signs f(p) over them
    is -1 (with the default f(p) = -1, whether their number is odd); and
    ``has_big``, whether n is squarefree with a big prime factor.  Two
    views read them: :meth:`f_values` (mu under the default signs, for
    :func:`mertens_trace` and :func:`squarefree_count`, or one sample's
    f) and the big-prime split :meth:`big_primes` for the multiplicative
    walk.  ``buffers`` is the dict the sieve refilled, or None: the arrays
    and :meth:`f_values`' result then view its buffers, and are valid
    until the next :func:`segment_radical_data` call given the same dict.
    """

    lo: int
    hi: int
    squarefree: np.ndarray
    small: np.ndarray
    radical: np.ndarray
    odd: np.ndarray
    has_big: np.ndarray
    buffers: dict | None = field(default=None, repr=False, compare=False)

    def f_values(self, big: np.ndarray | None = None, minus: np.ndarray | None = None) -> np.ndarray:
        """f(n) as int8: 1 - 2 * (odd ^ b) on squarefree n, else 0.

        b says that n has a big prime factor q with f(q) = -1: ``minus[k]``
        at index ``big[k]`` (the indices of :meth:`big_primes`), and
        ``has_big`` itself when they are not given, the case f(q) = -1 for
        every q.
        """
        f = _empty(self.buffers, "f", self.hi - self.lo, np.int8)
        b = f.view(bool)
        if big is None:
            np.bitwise_xor(self.odd, self.has_big, out=b)
        else:
            b[...] = False
            b[big] = minus
            b ^= self.odd
        f *= np.int8(-2)
        f += 1
        f *= self.squarefree
        return f

    def mobius(self) -> np.ndarray:
        """mu(n) as int8 under the default signs: :meth:`f_values` with every f(p) = -1."""
        return self.f_values()

    def big_primes(self) -> tuple[np.ndarray, np.ndarray]:
        """(big, big_prime): the flat indices (n - lo) of the n with
        ``has_big``, and that big prime factor in the dtype of ``radical``."""
        big = np.flatnonzero(self.has_big)
        big_prime = big.astype(self.radical.dtype)  # n < hi fits the product's dtype
        big_prime += self.lo
        big_prime //= self.radical[big]
        return big, big_prime


def segment_radical_data(lo: int, hi: int, primes: PrimeTable, prime_signs: np.ndarray | None = None,
                         buffers: dict | None = None) -> SegmentData:
    """Sieve [lo, hi) by the small primes p <= isqrt(hi-1) of ``primes``.

    Each n gets the product of f(p) * p over its small prime factors p (a
    :func:`fold_small_primes` with ``np.multiply``): its absolute value is
    the small part of n's radical, its sign the product of their f(p).
    ``prime_signs[j]`` is f(p) in {+1, -1} for ``primes.primes[j]`` (at
    least for the small primes); the default is f(p) = -1 for every p, so
    the sign is the parity of their number.  The product is held in int32
    when hi <= 2^31 (its absolute value is at most n < hi) and in int64
    above.  A squarefree n (no small p^2 divides it) has a big prime
    factor exactly when that radical part is below n.  Given a dict,
    ``buffers``, the arrays are refilled views of the buffers it keeps
    from the last call, which that data may no longer use.  Raises
    ``ParameterError`` for an empty segment, lo < 1 or a prime table short
    of isqrt(hi-1).
    """
    if not (1 <= lo < hi):
        raise ParameterError(f"segment [{lo}, {hi}) is empty or starts below 1")
    lim = isqrt(hi - 1)
    if primes.limit < lim:
        raise ParameterError(
            f"prime table limit {primes.limit} < isqrt(hi-1) = {lim}"
        )
    L = hi - lo
    small = primes.primes[: np.searchsorted(primes.primes, lim, side="right")]
    dtype = np.int32 if hi <= 1 << 31 else np.int64
    signed = small.astype(dtype)
    if prime_signs is None:
        np.negative(signed, out=signed)
    else:
        signed *= prime_signs[: small.size]
    prod = fold_small_primes(np.multiply, signed, small, lo, hi, _empty(buffers, "prod", L, dtype))
    odd = np.less(prod, 0, out=_empty(buffers, "odd", L, bool))
    rad = np.abs(prod, out=prod)
    sqf = _empty(buffers, "squarefree", L, bool)
    sqf[:] = True
    # a square p^2 >= L has at most one multiple in the segment
    few = int(np.searchsorted(small, isqrt(L - 1), side="right"))
    for p in small[:few].tolist():
        pp = p * p
        sqf[(-lo) % pp :: pp] = False
    squares = small[few:] * small[few:]
    first = (-lo) % squares
    sqf[first[first < L]] = False
    # a squarefree n with a big prime q > lim has radical part n / q below
    # hi / (lim + 1) <= lim + 1, so past lim a comparison with lo suffices
    has_big = np.less(rad, lo if lo > lim else np.arange(lo, hi, dtype=dtype),
                      out=_empty(buffers, "has_big", L, bool))
    has_big &= sqf
    return SegmentData(lo, hi, sqf, small, rad, odd, has_big, buffers)


def mertens_trace(
    x: int, checkpoints: list[int] | None = None, *, budget: int | None = None
) -> PartialSumTrace:
    """Streaming partial sums of mu(n) for n <= x with a sign-change census.

    mu(n) is read from the segmented radical data, with no sign word or
    lane decode, so the walk cross-checks the multiplicative walk with all
    signs set to -1; the steps go to one :class:`census.Tally` row through
    :func:`census.walk_steps`, which takes their partial sums in the tally,
    as an engine lane's do.  ``budget`` bounds the x steps as it bounds one
    sample's walk; the default is unbounded.
    """
    reqs = checkpoints or []
    x, marks, _ = walk_inputs(x, [*reqs, x], range(1), budget)
    primes = primes_up_to(max(2, isqrt(x)))
    seg = segment_length_for(x)
    tally = Tally(1, marks, np.int64, census=True)
    buffers: dict = {}
    for lo in range(1, x + 1, seg):
        data = segment_radical_data(lo, min(lo + seg, x + 1), primes, buffers=buffers)
        walk_steps(tally, 0, data.mobius(), lo)
    return PartialSumTrace.of_walk(WalkResult(marks, tally.values, tally.changes), reqs)
