"""Rademacher random multiplicative function: sampling and partial sums.

One sample f is determined by independent signs f(p) in {+1, -1} on the
primes, extended by f(n) = prod f(p) over the distinct prime factors of
squarefree n and f(n) = 0 otherwise (f(1) = 1).  Signs are drawn by the
counter-based generator in :mod:`signs`, so a sample is identified by
(master_seed, sample_index) alone and never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import signs
from .engine import PartialSumTrace, run_walks
from .errors import ParameterError
from .sieve import FactorRecord, PrimeTable, primes_up_to, segment_radical_data

HOOKS = ("hash", "plus", "minus")
_ALL_ONES = (1 << 64) - 1


@dataclass(frozen=True)
class SignOracle:
    """Deterministic prime-sign map for one sample of f.

    ``hook`` is a test aid: "plus" forces every sign to +1 (f becomes the
    squarefree indicator), "minus" forces -1 (f becomes the Mobius
    function); "hash" is the real Rademacher draw.
    """

    master_seed: int
    sample_index: int = 0
    hook: str = "hash"

    def __post_init__(self):
        if self.hook not in HOOKS:
            raise ParameterError(f"unknown oracle hook {self.hook!r}")
        if self.sample_index < 0:
            raise ParameterError("sample_index must be >= 0")


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
    return signs.sign_bit_to_int(signs.sign_word(key, int(p)), lane)


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


@dataclass(frozen=True)
class RmfWordSource:
    """Engine source streaming sign-parity words of f over segments."""

    master_seed: int
    hook: str = "hash"
    tag: str = "rmf"

    def is_float_walk(self) -> bool:
        return False

    def begin(self, x_end: int):
        primes = primes_up_to(max(2, isqrt(x_end)))
        pm = signs.mix64_array(
            primes.primes.astype(np.uint64) * np.uint64(signs.GOLDEN)
        )
        return {"primes": primes, "pm": pm}

    def segment(self, state, lo: int, hi: int):
        primes: PrimeTable = state["primes"]
        data = segment_radical_data(lo, hi, primes, want_parity=self.hook != "hash")
        ctx = {
            "lo": lo,
            "hi": hi,
            "sqf": data.squarefree,
            "primes": primes.primes,
            "pm": state["pm"],
            "lim": isqrt(hi - 1),
        }
        if self.hook == "hash":
            big = data.cofactor > 1
            mc = signs.mix64_array(
                data.cofactor.astype(np.uint64) * np.uint64(signs.GOLDEN)
            )
            ctx["mc"] = mc
            ctx["big_mask"] = big.astype(np.uint64)
        else:
            ctx["parity"] = data.omega_parity
        return ctx

    def block_words(self, ctx, block: int):
        L = ctx["hi"] - ctx["lo"]
        sqf = ctx["sqf"]
        if self.hook == "plus":
            return np.zeros(L, dtype=np.uint64), sqf
        if self.hook == "minus":
            words = np.where(ctx["parity"], np.uint64(_ALL_ONES), np.uint64(0))
            return words, sqf
        key = signs.block_key(self.master_seed, block, signs.SALT_PRIME)
        lo = ctx["lo"]
        lim = ctx["lim"]
        words = np.zeros(L, dtype=np.uint64)
        hsmall = signs.mix64_array(ctx["pm"] ^ np.uint64(key))
        for i, p in enumerate(ctx["primes"]):
            p = int(p)
            if p > lim:
                break
            words[(-lo) % p :: p] ^= hsmall[i]
        hcof = signs.mix64_array(ctx["mc"] ^ np.uint64(key))
        hcof *= ctx["big_mask"]
        words ^= hcof
        return words, sqf

    def weights(self, ctx):
        return None


def rmf_trace(
    oracle: SignOracle,
    x: int,
    checkpoints: list[int] | None = None,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> PartialSumTrace:
    """Stream M(u) for u <= x: census of sign changes plus checkpoint values."""
    reqs = sorted(set(int(c) for c in (checkpoints or [])))
    source = RmfWordSource(master_seed=oracle.master_seed, hook=oracle.hook)
    res = run_walks(
        source,
        x,
        marks=[*reqs, int(x)],
        sample_indices=[oracle.sample_index],
        census=True,
        workers=workers,
        budget=budget,
    )
    tag = f"rmf:{oracle.hook}" if oracle.hook != "hash" else "rmf"
    return PartialSumTrace.of_walk(res, reqs, tag)


def grid_positions(x: float, N: int) -> list[int]:
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    try:
        return [int(math.floor(math.exp(n) * x)) for n in range(1, N + 1)]
    except OverflowError as exc:
        raise ParameterError(f"e^N x overflows at N={N}, x={x}") from exc
