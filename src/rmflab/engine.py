"""Streaming multi-sample partial-sum walker.

The engine evaluates, for many Monte Carlo samples at once, walks of the
form M(u) = sum_{n<=u} X_n where each X_n is (scale) * (Rademacher sign),
with a scale of 1, 0 or a float magnitude.  Signs come from the
counter-based generator in :mod:`signs`: sample ``s`` reads bit ``s % 64``
of a hash word belonging to block ``s // 64``, so one uint64 XOR pass
accumulates the sign parity of 64 samples simultaneously.

A *source* adapts a concrete model to the engine.  Its ``float_walk``
class attribute says whether its steps are float magnitudes or +-1/0
integers.  It provides three calls:

``begin(x_end, samples) -> state``
    what every segment of a walk of the sample ``range`` to ``x_end``
    shares (prime tables, premixed prime hashes, reused buffers), or None;
``segment(state, lo, hi) -> ctx``
    shared data for the integers [lo, hi) (factorizations, premixed
    hashes, magnitudes), valid until the next ``segment`` call;
``block_words(ctx, block) -> (words, scale)``
    uint64 sign-parity words for one 64-sample block, and the scale of
    each step: None when every step is +-1, a bool mask of the nonzero
    steps, or (float walks) the float64 magnitudes.  A lane's step is its
    sign times ``scale``.  A source that began a one-sample walk may
    return int8 words instead: they are that lane's +-1/0 steps already,
    with scale None, and go to :func:`census.walk_steps` as they are.

Each lane is one row of a :class:`census.Tally`, which stops it if it
must, and walks each segment in pieces of ``PIECE`` integers.  A
``first_change`` walk, whose lanes stop at their first change after the
first mark, grades its pieces instead: the piece at integer a is
``min(PIECE, max(FIRST_PIECE, a - 1))`` integers long, so a lane whose
change comes early stops early.  An integer step is decoded from its lane
bit into an int8 +-1/0 (unless the words are int8 steps already) and
the piece goes to :func:`census.walk_steps`,
which takes partial sums only where the piece has a mark, can reach zero
or stops its lane.  A float step is the magnitude with the lane bit moved
into its sign bit, which negates it exactly.  A float piece carries the
running value into its first step and is cumsummed in place, so a float
walk is the plain sequential sum of its steps.  Outputs are therefore
reproducible bit-for-bit for any segment or piece length, and no
cross-sample float reduction happens here.  The engine walks a ``range``
of samples in the calling process, block by block (:func:`block_runs`);
:func:`models.collect_walks` cuts it between processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Any, Sequence

import numpy as np

from .census import Tally, count_to_marks, walk_steps
from .errors import ParameterError, ResourceError
from .signs import check_seed

DEFAULT_BUDGET = 10**9
MIN_SEGMENT = 1 << 20
PIECE = 1 << 14  # steps a lane walks per piece; a first_change lane may stop after each
FIRST_PIECE = 1 << 10  # a first_change walk's shortest piece; its pieces grade up to PIECE
SIGN_BIT = np.uint64(1 << 63)


@dataclass(frozen=True)
class PartialSumTrace:
    """One sample's walk summary: final value, census, checkpoints."""

    x_end: int
    final_value: int | float
    sign_change_count: int
    checkpoint_requests: tuple[int, ...]
    checkpoint_values: tuple

    @classmethod
    def of_walk(cls, res: WalkResult, checkpoints: Sequence[int]) -> PartialSumTrace:
        """The first sample's trace from a census walk whose last mark is x_end.

        The checkpoints are taken as ints, sorted and deduplicated; each
        must be a mark of the walk.
        """
        checkpoints = sorted(set(int(c) for c in checkpoints))
        cast = int if res.values.dtype.kind == "i" else float
        row = res.values[0]
        return cls(
            x_end=int(res.marks[-1]),
            final_value=cast(row[-1]),
            sign_change_count=int(res.changes[0, -1]),
            checkpoint_requests=tuple(checkpoints),
            checkpoint_values=tuple(cast(row[j]) for j in res.columns(checkpoints)),
        )


@dataclass
class WalkResult:
    """Per-sample walk values and cumulative sign-change counts at marks.

    ``values[i, j]`` is M(marks[j]) for sample ``start + i`` of the walk's
    sample range; ``changes[i, j]`` (census runs only) counts sign changes
    completing in [1, marks[j]], so windows difference exactly:
    V(a,b] = V(b) - V(a).
    """

    marks: np.ndarray
    values: np.ndarray
    changes: np.ndarray | None

    def columns(self, positions: Sequence[int]) -> np.ndarray:
        """The column of each position in ``marks``; every position must be a mark."""
        pos = np.asarray(positions, dtype=np.int64).reshape(-1)
        cols = np.searchsorted(self.marks, pos)
        if not (np.all(cols < self.marks.size) and np.array_equal(self.marks[cols], pos)):
            missing = sorted(set(pos.tolist()) - set(self.marks.tolist()))
            raise ParameterError(f"positions {missing} are not marks of this walk")
        return cols


def segment_length_for(x_end: int) -> int:
    return max(MIN_SEGMENT, isqrt(max(int(x_end), 1)))


def walk_inputs(
    x_end: int, marks: Sequence[int], samples: range, budget: int | None
) -> tuple[int, np.ndarray, range]:
    """Validate a walk request: x_end, sorted distinct marks and a sample range.

    Raises ``ParameterError`` for a NaN or infinite x_end or mark, an x_end
    outside [1, 2^63), marks outside [1, x_end] or samples other than a
    ``range`` with step 1 and 0 <= start < stop <= 2^63, and
    ``ResourceError`` (before anything is allocated) when x_end * samples
    exceeds ``budget``; ``MemoryError`` when no array can hold the rows.
    """
    try:
        x_end = int(x_end)
        marks = sorted(set(int(m) for m in marks))
    except (ValueError, OverflowError) as exc:
        raise ParameterError(f"x_end and marks must be finite: {exc}") from exc
    if not 1 <= x_end < 2**63:
        raise ParameterError(f"x_end must lie in [1, 2^63), got {x_end}")
    if not marks:
        raise ParameterError("at least one mark is required")
    if marks[0] < 1 or marks[-1] > x_end:
        raise ParameterError(
            f"marks must lie in [1, {x_end}], got range "
            f"[{marks[0]}, {marks[-1]}]"
        )
    if not (isinstance(samples, range) and samples.step == 1
            and 0 <= samples.start < samples.stop <= 2**63):
        raise ParameterError(f"samples must be a range(start, stop) with 0 <= start < stop "
                             f"<= 2^63, got {samples!r:.80}")
    rows = samples.stop - samples.start  # len() overflows at 2^63
    steps = x_end * rows
    if budget is not None and steps > budget:
        raise ResourceError(
            f"run needs {steps} walk steps (x_end={x_end} * samples={rows}) "
            f"but the budget is {budget}; raise it explicitly or via RMFLAB_BUDGET",
            required=steps,
        )
    if rows * len(marks) >= 2**60:  # beyond numpy's reach for an int64 (rows, marks) array
        raise MemoryError(f"{rows} samples x {len(marks)} marks exceed the address space")
    return x_end, np.asarray(marks, dtype=np.int64), samples


def block_runs(samples: range, parts: int | None = None) -> list[range]:
    """Cut samples at block edges into one run per block, or into at most ``parts`` runs.

    Sample s is lane ``s % 64`` of block ``s // 64``.  Runs hold whole
    blocks (bar the range's two ends), in order, and their block counts
    differ by at most one, the longer runs first.
    """
    first = samples.start >> 6
    blocks = ((samples.stop - 1) >> 6) - first + 1
    n = blocks if parts is None else min(parts, blocks)
    q, r = divmod(blocks, n)
    edges = [samples.start, *((first + k * q + min(k, r)) << 6 for k in range(1, n)), samples.stop]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def run_walks(
    source: Any,
    x_end: int,
    marks: Sequence[int],
    sample_indices: range,
    *,
    census: bool = True,
    budget: int | None = None,
    first_change: bool = False,
) -> WalkResult:
    """Walk a sample range to ``x_end`` in this process, reporting at ``marks``.

    Row i is sample ``sample_indices.start + i`` (see :func:`walk_inputs`);
    the source's ``master_seed`` must lie in [0, 2^63) (:func:`signs.check_seed`).
    Segments are ``segment_length_for(x_end)`` integers long, and every
    lane walks each segment in pieces of ``PIECE`` integers; a float walk
    is the sequential sum of its steps, so no segment or piece length
    changes the output.  Each sample's row depends only on (source,
    sample, marks), so a caller may walk runs of the range anywhere and
    concatenate them.

    ``first_change=True`` (census runs only) is for callers that only ask
    whether a sign change follows ``marks[0]``: the walk's
    :class:`census.Tally` stops each lane at the end of the piece where
    its first such change completes, and the output is still a function
    of (source, sample, marks) alone.  Its pieces grade up with the
    position: the piece at integer a is ``min(PIECE, max(FIRST_PIECE,
    a - 1))`` integers long (1024, 1024, 2048, ... up to ``PIECE``, each
    ending at a power of two until a segment cuts it), so a lane whose
    change completes at u walks to about 2u, not to the end of a
    ``PIECE``-long piece.
    """
    check_seed(source.master_seed)
    x_end, marks, samples = walk_inputs(x_end, marks, sample_indices, budget)
    seg_len = segment_length_for(x_end)
    state = source.begin(x_end, samples)
    float_walk = source.float_walk
    tally = Tally(len(samples), marks, np.float64 if float_walk else np.int64, census,
                  first_change)
    # buffers reused by every piece: a piece of PIECE steps stays in cache
    # through all of its passes
    piece_len = min(PIECE, seg_len, x_end)
    grade = FIRST_PIECE if first_change else piece_len
    scratch = np.empty(piece_len, dtype=np.uint64)
    step8 = np.empty(piece_len, dtype=np.int8)

    one = np.uint64(1)
    runs = block_runs(samples)  # after the tally, which fails first when too large
    lo = 1
    while lo <= x_end:
        hi = min(lo + seg_len, x_end + 1)
        ctx = None  # free the last segment's context before building the next
        ctx = source.segment(state, lo, hi)
        for run in runs:
            rows = slice(run.start - samples.start, run.stop - samples.start)
            if tally.stopped[rows].all():
                continue
            words, scale = source.block_words(ctx, run.start >> 6)
            if scale is not None:
                # a mask multiplies int8 steps; magnitudes take the sign bit
                scale = scale.view(np.uint64 if float_walk else np.int8)
            for row, s in enumerate(run, rows.start):
                lane = np.uint64(s & 63)
                to_sign_bit = np.uint64(63) - lane
                a = lo
                while a < hi and not tally.stopped[row]:
                    b = min(a + min(piece_len, max(grade, a - 1)), hi)
                    span = slice(a - lo, b - lo)
                    t = scratch[: b - a]
                    if not float_walk:
                        if words.dtype == np.int8:  # the lane's steps already
                            bit = words[span]
                        else:
                            np.right_shift(words[span], lane, out=t)
                            t &= one
                            bit = step8[: b - a]
                            bit[:] = t
                            np.multiply(bit, np.int8(-2), out=bit)
                            bit += np.int8(1)
                            if scale is not None:
                                bit *= scale[span]
                        walk_steps(tally, row, bit, a)
                    else:
                        # flipping a float's sign bit negates it exactly, so
                        # each step is exactly +-scale; carrying M in through
                        # the first step makes the walk the plain sequential sum
                        np.left_shift(words[span], to_sign_bit, out=t)
                        t &= SIGN_BIT
                        t ^= scale[span]
                        m = t.view(np.float64)
                        m[0] += tally.running[row]
                        m.cumsum(out=m)
                        count_to_marks(tally, row, m, a)
                    a = b
        lo = hi
    return WalkResult(marks, tally.values, tally.changes)
