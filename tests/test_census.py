import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab.census import (
    change_positions_chunk,
    count_changes_chunk,
    count_to_marks,
)


def naive_count(values, carry=0):
    count = 0
    last = carry
    for v in values:
        s = int(v > 0) - int(v < 0)
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count, last


@given(
    st.lists(st.integers(-3, 3), min_size=0, max_size=60),
    st.sampled_from([-1, 0, 1]),
)
def test_count_matches_naive(values, carry):
    got = count_changes_chunk(np.array(values, dtype=np.int64), carry)
    assert got == naive_count(values, carry)


@settings(max_examples=30)
@given(st.integers(0, 2**32), st.sampled_from([-1, 0, 1]))
def test_blockwise_path_matches_naive_on_long_walks(seed, carry):
    # long +-1/0 walks exercise the block-skip path (size >> internal block)
    rng = np.random.default_rng(seed)
    steps = rng.integers(-1, 2, size=20000)
    walk = np.cumsum(steps) + int(rng.integers(-50, 50))
    got = count_changes_chunk(walk, carry)
    assert got == naive_count(walk, carry)


def test_chunking_is_associative():
    rng = np.random.default_rng(5)
    walk = np.cumsum(rng.integers(-1, 2, size=5000))
    whole, carry_w = count_changes_chunk(walk, 0)
    total = 0
    carry = 0
    for part in np.array_split(walk, 7):
        d, carry = count_changes_chunk(part, carry)
        total += d
    assert (total, carry) == (whole, carry_w)


def test_positions_mark_later_element():
    pos, last = change_positions_chunk(np.array([1.0, 0.0, -1.0, 0.0, 1.0]), 0)
    assert pos == [2, 4]
    assert last == 1
    pos, _ = change_positions_chunk(np.array([-2.0, 5.0]), 1)
    # carry + means the first value already completes a change at index 0
    assert pos == [0, 1]


class TestCountToMarks:
    @settings(max_examples=100)
    @given(
        st.lists(st.integers(-2, 2), min_size=1, max_size=60),
        st.lists(st.integers(1, 60), max_size=8),
        st.lists(st.integers(1, 59), max_size=4),
    )
    def test_piecewise_reading_matches_whole_walk(self, steps, marks, cuts):
        m = np.cumsum(steps)
        x = m.size
        marks = np.array(sorted({mk for mk in marks if mk <= x} | {x}))
        values = np.zeros(marks.size, dtype=np.int64)
        changes = np.zeros(marks.size, dtype=np.int64)
        carry, acc = 0, 0
        edges = sorted({0, x, *(c for c in cuts if c < x)})
        for a, b in zip(edges, edges[1:]):
            carry, acc = count_to_marks(m[a:b], a + 1, marks, carry, acc, values, changes)
        assert values.tolist() == m[marks - 1].tolist()
        assert changes.tolist() == [naive_count(m[:mk])[0] for mk in marks]
        assert (acc, carry) == naive_count(m)
