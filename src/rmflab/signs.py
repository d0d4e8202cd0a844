"""Counter-based sign generator: the randomness kernel of every model.

A sample's Rademacher signs are never stored.  Each sign is recomputed on
demand from a 64-bit avalanche hash (the splitmix64 finalizer) of

    (master_seed, block, value)        block = sample_index // 64

and the sample's lane ``sample_index % 64`` picks one bit of the hash word.
One hash therefore yields the signs of 64 consecutive samples at once,
which is what lets the trace engine evaluate whole sample blocks with
single uint64 XOR passes.

The hash has a pure-Python form (``mix64``, for per-block keys and
per-sample uniforms) and a vectorized numpy one (``mix64_array``, for sign
words), which hashes a 1-D uint64 array in place: ``premix`` and
``keyed_words`` each make one fresh array and hash it, so their inputs are
kept.  The two forms must agree bit-for-bit (tested against each other and
against the scalar sign word in the tests' oracle), since reproducibility
of every experiment hangs on this module.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Per-family salts keep e.g. the iid walk at index n decorrelated from the
# multiplicative walk at prime p = n under the same master seed.
SALT_PRIME = 0xA076_1D64_78BD_642F
SALT_INDEX = 0xE703_7ED1_A0B4_28DB

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer (pure Python)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


_NP_M1 = np.uint64(_M1)
_NP_M2 = np.uint64(_M2)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)


_CHUNK = 1 << 14  # elements per chunk: its eight passes stay in cache


def mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied in place to a 1-D uint64 array, which it returns."""
    scratch = np.empty(min(_CHUNK, z.size), dtype=np.uint64)
    for start in range(0, z.size, _CHUNK):
        c = z[start : start + _CHUNK]
        t = scratch[: c.size]
        np.right_shift(c, _NP_30, out=t)
        c ^= t
        c *= _NP_M1
        np.right_shift(c, _NP_27, out=t)
        c ^= t
        c *= _NP_M2
        np.right_shift(c, _NP_31, out=t)
        c ^= t
    return z


def check_seed(master_seed: int) -> int:
    """``master_seed`` if in [0, 2^63), else ``ParameterError`` (block_key reduces mod 2^64)."""
    if not 0 <= master_seed < 1 << 63:
        raise ParameterError(f"master seed must lie in [0, 2^63), got {master_seed}")
    return master_seed


def block_key(master_seed: int, block: int, salt: int) -> int:
    """Key for one 64-sample block of one sign family."""
    return mix64((master_seed + GOLDEN * block + salt) & MASK64)


def premix(values: np.ndarray) -> np.ndarray:
    """The key-free half of the sign-word hash: mix64(v * GOLDEN) for each value.

    It depends on the values alone, so a walk premixes each segment's values
    once and keys the result for every block (:func:`keyed_words`).
    """
    return mix64_array(np.multiply(values, np.uint64(GOLDEN), dtype=np.uint64, casting="unsafe"))


def keyed_words(premixed: np.ndarray, key: int, out: np.ndarray | None = None) -> np.ndarray:
    """64 lane sign bits for each premixed value under a block key.

    ``keyed_words(premix(v), key)`` is mix64(mix64(v * GOLDEN) ^ key).  Bit
    j of a word is the sign bit of sample ``64*block + j``: 0 encodes +1, 1
    encodes -1.  The words are written into ``out`` when given (which may
    be ``premixed`` itself), else into a fresh array.
    """
    return mix64_array(np.bitwise_xor(premixed, np.uint64(key), out=out))


def uniform01(master_seed: int, sample_index: int, salt: int) -> float:
    """Deterministic uniform draw on [0, 1) for one sample (53-bit)."""
    return (block_key(master_seed, sample_index, salt) >> 11) * (1.0 / (1 << 53))
