from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmflab import census
from rmflab.census import (
    Tally,
    change_positions_chunk,
    count_changes_chunk,
    count_to_marks,
    walk_steps,
)

C = census._CHUNK


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


def tally_at(marks, census, running=0, carry=0, acc=0):
    """A one-row int64 tally whose row starts mid-walk at the given state."""
    t = Tally(1, np.asarray(marks, dtype=np.int64), np.int64, census)
    t.running[0], t.carry[0], t.acc[0] = running, carry, acc
    return t


def outputs(t):
    """A one-row tally's state, values and counts, as plain lists."""
    state = [int(t.carry[0]), int(t.acc[0]), int(t.running[0])]
    return state, t.values[0].tolist(), None if t.changes is None else t.changes[0].tolist()


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
        t = tally_at(marks, census=True)
        edges = sorted({0, x, *(c for c in cuts if c < x)})
        for a, b in zip(edges, edges[1:]):
            count_to_marks(t, 0, m[a:b], a + 1)
        assert t.values[0].tolist() == m[marks - 1].tolist()
        assert t.changes[0].tolist() == [naive_count(m[:mk])[0] for mk in marks]
        assert (int(t.acc[0]), int(t.carry[0])) == naive_count(m)
        assert int(t.running[0]) == m[-1]

    def test_stop_at_first_change_repeats_the_walk_there(self):
        m = np.array([1, 2, 1, 0, -1, -2, 1], dtype=np.int64)  # changes complete at 5 and 7
        t = tally_at([2, 4, 6, 7], census=True)
        count_to_marks(t, 0, m, 1)
        t.stop_at_first_change(0, m, 1, 0)
        assert t.values[0].tolist() == [2, 0, -1, -1]
        assert t.changes[0].tolist() == [0, 0, 1, 1]
        assert t.stopped.tolist() == [True]


class TestWalkSteps:
    """walk_steps against cumsum + count_to_marks on the same piece."""

    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([4, 16, C]),
        chunks=st.integers(1, 12),
        tail=st.sampled_from([0, 0, 1, 3]),
        zero_share=st.sampled_from([0.0, 0.5, 0.95]),
        drift=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        start_at=st.sampled_from([(0, 0), (1, -1), (-1, 1), (1, 0), (-1, 0), (1, 1),
                                  (7, 0), (-40, 0)]),
        carry0=st.sampled_from([-1, 0, 1]),
        inside=st.lists(st.integers(0, 13 * C), max_size=3),
        outside=st.booleans(),
        with_census=st.booleans(),
    )
    def test_matches_dense_walk(self, seed, chunk, chunks, tail, zero_share, drift, start_at,
                                carry0, inside, outside, with_census):
        rng = np.random.default_rng(seed)
        n = chunks * chunk + tail
        up = (1 - zero_share) * (1 + drift) / 2
        down = (1 - zero_share) * (1 - drift) / 2
        steps = rng.choice(np.array([1, 0, -1], dtype=np.int8), size=n,
                           p=[up, zero_share, down])
        # M(start - 1) at 0, +-(chunk - 1), +-chunk, chunk + 1 or far from zero
        running = start_at[0] * chunk + start_at[1]
        start = 1000
        # the carry before the piece is the sign of a nonzero M(start - 1)
        carry = int(np.sign(running)) if running else carry0
        marks = {start + i for i in inside if i < n}
        if outside:
            marks |= {start - 3, start + n, start + n + 50}
        marks = sorted(marks)
        m = np.cumsum(steps, dtype=np.int64) + running

        want = tally_at(marks, with_census, running, carry, 5)
        count_to_marks(want, 0, m, start)
        got = tally_at(marks, with_census, running, carry, 5)
        with mock.patch.object(census, "_CHUNK", chunk):
            walk_steps(got, 0, steps, start)
        assert outputs(got) == outputs(want)
        assert got.running.dtype == np.int64

    @pytest.mark.parametrize("running, carry, runs", [
        (C - 1, 1, [(-1, C), (1, 2 * C)]),  # a change on a chunk's last step
        (C, 1, [(-1, C), (-1, C), (1, C)]),  # zero on a chunk's last step
        (0, -1, [(1, 3 * C)]),  # only the first chunk can change sign
        (0, 1, [(0, C), (-1, C), (0, C)]),  # an all-zero chunk at the origin
        (1 - C, -1, [(1, C), (-1, 1), (1, 2 * C - 1)]),
    ])
    def test_chunks_at_the_edge_of_zero(self, running, carry, runs):
        steps = np.concatenate([np.full(k, v, dtype=np.int8) for v, k in runs])
        m = np.cumsum(steps, dtype=np.int64) + running
        want = tally_at([10**6], True, running, carry)
        count_to_marks(want, 0, m, 1)
        got = tally_at([10**6], True, running, carry)
        walk_steps(got, 0, steps, 1)
        assert outputs(got) == outputs(want)

    def test_far_chunks_are_not_scanned(self, monkeypatch):
        scanned = []

        def spy(values, carry_sign):
            scanned.append(values.size)
            return count_changes_chunk(values, carry_sign)

        monkeypatch.setattr(census, "count_changes_chunk", spy)
        steps = np.ones(8 * C, dtype=np.int8)
        steps[3 * C :] = -1  # climbs from 2 to 3C + 2, then falls to 2 - 2C
        t = tally_at([10**6], True, running=2, carry=1)
        walk_steps(t, 0, steps, 1)
        assert outputs(t) == ([-1, 1, 2 - 2 * C], [0], [0])
        # only chunks 0, 6 and 7 start at |M| < C
        assert scanned == [3 * C]
        scanned.clear()
        # a value-only piece is summed, never scanned
        t = tally_at([10**6], False, running=2, carry=1)
        walk_steps(t, 0, steps, 1)
        assert outputs(t) == ([1, 0, 2 - 2 * C], [0], None)
        assert scanned == []
