import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import signs
from rmflab.sieve import primes_up_to

from oracle import sign_bit_to_int, sign_word, sign_words_array


@given(st.integers(0, 2**64 - 1))
def test_mix64_scalar_matches_array(z):
    arr = signs.mix64_array(np.array([z], dtype=np.uint64))
    assert int(arr[0]) == signs.mix64(z)


def test_mix64_array_across_chunks_and_layouts():
    # long enough for several chunks and a ragged last one; the hash runs in place
    z = np.random.default_rng(5).integers(0, 2**64, 3 * signs._CHUNK + 5, dtype=np.uint64)
    expected = [signs.mix64(int(v)) for v in z]
    assert signs.mix64_array(z) is z
    assert z.tolist() == expected
    # a strided 1-D view hashes the elements it views, in its base, and no others
    base = np.random.default_rng(6).integers(0, 2**64, 7 * 40 + 3, dtype=np.uint64)
    before = base.copy()
    view = base[::7]
    assert signs.mix64_array(view) is view
    assert base[::7].tolist() == [signs.mix64(int(v)) for v in before[::7]]
    mask = np.ones(base.size, dtype=bool)
    mask[::7] = False
    assert np.array_equal(base[mask], before[mask])
    assert signs.mix64_array(z[:0]).size == 0


@given(st.integers(0, 2**64 - 1), st.integers(2, 2**40))
def test_sign_word_scalar_matches_array(key, value):
    word = sign_word(key, value)
    arr = sign_words_array(key, np.array([value], dtype=np.int64))
    assert int(arr[0]) == word


@pytest.mark.parametrize(
    "dtype,values",
    [
        (np.int32, [0, 1, 2, 13, 2**31 - 1]),
        (np.int64, [0, 1, 97, 2**40 + 15, 2**63 - 1]),
        (np.uint64, [0, 1, 97, 2**62 + 3, 2**63 - 1]),
    ],
)
def test_premix_then_keyed_words_match_sign_word(dtype, values):
    key = signs.block_key(2024, 3, signs.SALT_PRIME)
    arr = np.array(values, dtype=dtype)
    premixed = signs.premix(arr)
    kept = premixed.copy()
    words = signs.keyed_words(premixed, key)
    assert words.dtype == np.uint64
    assert words.tolist() == [sign_word(key, v) for v in values]
    assert arr.tolist() == values  # both inputs are kept
    assert np.array_equal(premixed, kept)
    # given ``out``, the words are written there, premixed itself included
    assert signs.keyed_words(premixed, key, out=premixed) is premixed
    assert np.array_equal(premixed, words)


def test_sign_bits_deterministic():
    key = signs.block_key(42, 0, signs.SALT_PRIME)
    w1 = sign_word(key, 101)
    w2 = sign_word(key, 101)
    assert w1 == w2
    assert sign_bit_to_int(w1, 5) in (-1, 1)


def test_block_key_distinguishes_blocks_and_salts():
    ks = {
        signs.block_key(1, 0, signs.SALT_PRIME),
        signs.block_key(1, 1, signs.SALT_PRIME),
        signs.block_key(1, 0, signs.SALT_INDEX),
        signs.block_key(2, 0, signs.SALT_PRIME),
    }
    assert len(ks) == 4


def test_lane_bits_unbiased_over_values():
    # each lane of the hash word should be a fair coin across values
    key = signs.block_key(7, 3, signs.SALT_INDEX)
    vals = np.arange(1, 20001, dtype=np.int64)
    words = sign_words_array(key, vals)
    for lane in (0, 17, 63):
        bits = ((words >> np.uint64(lane)) & np.uint64(1)).astype(np.int64)
        mean = 1.0 - 2.0 * bits.mean()
        assert abs(mean) < 5.0 / np.sqrt(vals.size)


@settings(max_examples=25)
@given(st.integers(0, 2**63), st.integers(0, 2**20))
def test_uniform01_range(seed, idx):
    u = signs.uniform01(seed, idx, signs.SALT_PRIME)
    assert 0.0 <= u < 1.0
    # the top 53 bits of the sample's hash, as the Sidon phases have always read
    word = signs.mix64((seed + signs.GOLDEN * idx + signs.SALT_PRIME) & signs.MASK64)
    assert u == (word >> 11) / 2.0**53


def prime_signs(seed, premixed):
    """f(p) in int8 for each premixed prime over the 512 lanes of blocks 0..7."""
    keys = [signs.block_key(seed, b, signs.SALT_PRIME) for b in range(8)]
    words = np.stack([signs.keyed_words(premixed, k) for k in keys], axis=1)
    # bit j of block b's word is lane 64 b + j; a set bit is f(p) = -1
    s = np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little").view(np.int8)
    s *= -2
    s += 1
    return s


def test_prime_sign_family_shows_no_structure():
    # every result rests on the f(p) being independent fair coins across
    # primes, lanes and seeds; each statistic below is N(0, 1) under that law
    primes = primes_up_to(10**6).primes
    premixed = signs.premix(primes.astype(np.uint64))
    n = primes.size
    s = prime_signs(987654321, premixed)
    gram = np.zeros((512, 512))
    for i in range(0, n, 8192):
        c = s[i : i + 8192].astype(np.float32)  # exact: every sum stays below 2^24
        gram += c.T @ c
    pair_z = gram[np.triu_indices(512, 1)] / np.sqrt(n)
    assert pair_z.size == 130_816
    assert abs(pair_z.std() - 1.0) < 0.01
    assert np.abs(pair_z).max() < 5.5
    # a normal law puts 0.0027 of its mass beyond |z| = 3
    assert 0.002 <= np.mean(np.abs(pair_z) > 3) <= 0.0035
    lane_z = s.sum(axis=0, dtype=np.int64) / np.sqrt(n)
    neighbour_z = (s[1:] * s[:-1]).sum(axis=0, dtype=np.int64) / np.sqrt(n - 1)
    seed_z = (s * prime_signs(987654322, premixed)).sum(axis=0, dtype=np.int64) / np.sqrt(n)
    for z in (lane_z, neighbour_z, seed_z):
        assert np.abs(z).max() < 4.5
