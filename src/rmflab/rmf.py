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
from .sieve import fold_small_primes, primes_up_to, segment_radical_data


def _check_hook(hook: str) -> None:
    if hook not in ("hash", "minus"):
        raise ParameterError(f"unknown oracle hook {hook!r}")


@dataclass(frozen=True)
class SignOracle:
    """Deterministic prime-sign map for one sample of f.

    ``hook`` "minus" forces every sign to -1, so f becomes the Mobius
    function (the Mertens cross-check); "hash" is the real Rademacher draw.
    """

    master_seed: int
    sample_index: int = 0
    hook: str = "hash"

    def __post_init__(self):
        _check_hook(self.hook)
        signs.check_seed(self.master_seed)


@dataclass(frozen=True)
class RmfWordSource:
    """Engine source of f: 64-lane sign-parity words, or one lane's steps.

    A walk of several samples streams words: n's word XORs its prime
    factors' words (the small ones by :func:`sieve.fold_small_primes`, the
    big one from :meth:`sieve.SegmentData.big_primes`; no parity is read),
    keyed hashes, or all ones (f(p) = -1) under hook "minus".  A walk of
    one sample streams that lane's int8 steps instead: ``begin`` reads the
    lane's f(p) on the small primes, the sieve folds f(p) * p, so the sign
    of the product is f of n's small part, and only each n's big prime is
    hashed (:meth:`sieve.SegmentData.f_values`).  Both give the same steps,
    since lane l's bit of a XOR of words is the parity of the -1 signs
    among them.  The one-sample sieve refills buffers held in the
    ``begin`` state, so a segment's context is valid until the next
    ``segment`` call on the same state.
    """

    master_seed: int
    hook: str = "hash"
    float_walk = False

    def __post_init__(self):
        _check_hook(self.hook)

    def begin(self, x_end: int, samples: range):
        primes = primes_up_to(max(2, isqrt(x_end)))
        pm = signs.premix(primes.primes)
        if len(samples) > 1:
            return {"primes": primes, "pm": pm}
        s = samples.start
        key = signs.block_key(self.master_seed, s >> 6, signs.SALT_PRIME)
        bit = np.uint64(1 << (s & 63))
        prime_signs = np.where(self._lane_minus(pm, key, bit), np.int8(-1), np.int8(1))
        return {"primes": primes, "key": key, "bit": bit, "prime_signs": prime_signs,
                "buffers": {}}

    def segment(self, state, lo: int, hi: int):
        if "bit" in state:
            data = segment_radical_data(lo, hi, state["primes"], state["prime_signs"],
                                        state["buffers"])
            big, big_prime = data.big_primes()
            minus = self._lane_minus(signs.premix(big_prime), state["key"], state["bit"])
            return {"squarefree": data.squarefree, "steps": data.f_values(big, minus)}
        data = segment_radical_data(lo, hi, state["primes"])
        big, big_prime = data.big_primes()
        return {"lo": lo, "hi": hi, "small": data.small, "squarefree": data.squarefree,
                "big": big, "pm": state["pm"][: data.small.size], "mc": signs.premix(big_prime)}

    def block_words(self, ctx, block: int):
        """Sign-parity words of one block, exact on squarefree n, with that
        mask as the scale; on a one-sample walk, its int8 steps, unscaled."""
        if "steps" in ctx:
            return ctx["steps"], None
        key = signs.block_key(self.master_seed, block, signs.SALT_PRIME)
        hsmall = self._prime_words(ctx["pm"], key)
        words = fold_small_primes(np.bitwise_xor, hsmall, ctx["small"], ctx["lo"], ctx["hi"])
        words[ctx["big"]] ^= self._prime_words(ctx["mc"], key)
        return words, ctx["squarefree"]

    def _prime_words(self, premixed: np.ndarray, key: int,
                     out: np.ndarray | None = None) -> np.ndarray:
        if self.hook == "minus":
            return np.full(premixed.size, signs.MASK64, dtype=np.uint64)
        return signs.keyed_words(premixed, key, out)

    def _lane_minus(self, premixed: np.ndarray, key: int, bit: np.uint64) -> np.ndarray:
        """Whether f(p) = -1 in the lane of ``bit``, for each premixed prime
        (whose array may be overwritten)."""
        words = self._prime_words(premixed, key, out=premixed)
        words &= bit
        return words != 0


def rmf_trace(
    oracle: SignOracle,
    x: int,
    checkpoints: list[int] | None = None,
    *,
    budget: int | None = None,
    workers: int = 1,
) -> PartialSumTrace:
    """Stream M(u) for u <= x: census of sign changes plus checkpoint values.

    The sample is walked in this process, on the one-lane path of
    :class:`RmfWordSource`; ``workers`` is accepted and unused.
    """
    reqs = checkpoints or []
    source = RmfWordSource(master_seed=oracle.master_seed, hook=oracle.hook)
    res = run_walks(
        source,
        x,
        marks=[*reqs, x],
        sample_indices=range(oracle.sample_index, oracle.sample_index + 1),
        census=True,
        budget=budget,
    )
    return PartialSumTrace.of_walk(res, reqs)


def grid_positions(x: float, N: int) -> list[int]:
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    try:
        return [int(math.floor(math.exp(n) * x)) for n in range(1, N + 1)]
    except (OverflowError, ValueError) as exc:
        raise ParameterError(f"e^N x overflows or is NaN at N={N}, x={x}") from exc
