"""Zero-skip sign-change counting primitives.

Policy: zeros never carry sign information.  The sign sequence is first
stripped of zeros and a change is counted for every adjacent pair of
opposite signs; a ``+ ... 0 ... -`` pattern counts exactly once.  Counting
functions thread a carry (the last nonzero sign seen so far) so that long
walks can be processed in streaming chunks and window counts

    V(a, b] = V(b) - V(a)

stay exact across chunk boundaries.

Every walker (engine, Sidon, martingale, Mertens) reads its walks through
one :class:`Tally`, fed a row's pieces in order by :func:`count_to_marks`
(partial sums) or :func:`walk_steps` (+-1/0 steps); the tally also says
when a row stops and holds the +-1/0 partial sums.

Long chunks are scanned blockwise: a block whose min stays above zero (or
max below) cannot contain a change beyond the single possible flip against
the carry, so the expensive sign-compress pass only runs on blocks that
straddle the origin.  For a walk at height ~sqrt(u) almost every block is
skipped.

:func:`walk_steps` goes one step further on +-1/0 walks, before any
partial sum exists: M moves by at most 1 per step, so a run of ``_CHUNK``
steps that starts at |M| >= ``_CHUNK`` keeps the sign it starts with and
cannot complete a change.  Only the chunks that start nearer to zero are
summed step by step and counted.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_BLOCK = 4096
_CHUNK = 256  # steps per chunk of walk_steps' sparse census
INT32_CEILING = 1 << 30  # below this position, +-1/0 partial sums fit int32 exactly


def _count_dense(values: np.ndarray, carry_sign: int) -> tuple[int, int]:
    """Compress-and-diff count on one block known to straddle zero."""
    s = np.sign(values)
    nz = s[s != 0]
    if nz.size == 0:
        return 0, carry_sign
    changes = int(np.count_nonzero(nz[1:] != nz[:-1]))
    if carry_sign != 0 and nz[0] != carry_sign:
        changes += 1
    return changes, int(nz[-1])


def count_changes_chunk(values: np.ndarray, carry_sign: int) -> tuple[int, int]:
    """Count zero-skip sign changes in one chunk of walk values.

    ``carry_sign`` is the last nonzero sign before the chunk (0 if the walk
    has not left the origin yet).  Returns ``(changes, new_carry_sign)``.
    """
    n = values.size
    if n == 0:
        return 0, carry_sign
    lo = values.min()
    hi = values.max()
    if lo > 0:
        return (1 if carry_sign < 0 else 0), 1
    if hi < 0:
        return (1 if carry_sign > 0 else 0), -1
    if lo == 0 and hi == 0:
        return 0, carry_sign
    if n <= 2 * _BLOCK:
        return _count_dense(values, carry_sign)
    nb = n // _BLOCK
    body = values[: nb * _BLOCK].reshape(nb, _BLOCK)
    mins = body.min(axis=1)
    maxs = body.max(axis=1)
    changes = 0
    carry = carry_sign
    for k in range(nb):
        if mins[k] > 0:
            if carry < 0:
                changes += 1
            carry = 1
        elif maxs[k] < 0:
            if carry > 0:
                changes += 1
            carry = -1
        elif mins[k] == 0 and maxs[k] == 0:
            continue
        else:
            d, carry = _count_dense(body[k], carry)
            changes += d
    if nb * _BLOCK < n:
        d, carry = count_changes_chunk(values[nb * _BLOCK :], carry)
        changes += d
    return changes, carry


class Tally:
    """A walk's outputs at its marks, and each row's state between pieces.

    ``values[i, j]`` is row i's M(marks[j]) and ``changes[i, j]`` (census
    walks only, else None) its sign changes completing in [1, marks[j]].
    Between pieces a row keeps ``running`` (M so far), ``carry`` (the last
    nonzero sign, 0 at first) and ``acc`` (changes so far); ``stopped``
    marks the rows :meth:`stop_at_first_change` ended, which only a
    ``first_change`` tally (census walks only) does; walkers skip them.
    """

    def __init__(self, rows: int, marks: np.ndarray, dtype, census: bool,
                 first_change: bool = False):
        self.check_request(census, first_change)
        self.marks = marks
        self.first_change = first_change
        self.values = np.zeros((rows, marks.size), dtype=dtype)
        self.changes = np.zeros((rows, marks.size), dtype=np.int64) if census else None
        self.running = np.zeros(rows, dtype=dtype)
        self.carry = np.zeros(rows, dtype=np.int64)
        self.acc = np.zeros(rows, dtype=np.int64)
        self.stopped = np.zeros(rows, dtype=bool)
        self.sums = np.empty(0, dtype=np.int32)  # walk_steps' partial sums, reused

    @staticmethod
    def check_request(census: bool, first_change: bool) -> None:
        """Refuse a value-only ``first_change`` walk, before a walker builds anything."""
        if first_change and not census:
            raise ParameterError("first_change needs a census run")

    def stops(self, row: int, acc: int, end: int) -> bool:
        """Whether ``row`` stops in the piece ending before ``end``, with ``acc`` changes there."""
        return self.first_change and end > self.marks[0] and acc > self.changes[row, 0]

    def stop_at_first_change(self, row: int, m: np.ndarray, start: int, carry: int) -> None:
        """End ``row`` at its first change after ``marks[0]``, at u in the piece m.

        ``m[i]`` is M(start + i), entered with last nonzero sign ``carry``.
        Marks from u on report M(u) and ``changes[row, 0] + 1``, so a change
        in (marks[0], marks[j]] is still exactly ``changes[row, j] > changes[row, 0]``.
        """
        at, _ = change_positions_chunk(m, carry, start)
        u = next(p for p in at if p > self.marks[0])
        j = int(np.searchsorted(self.marks, u))
        self.values[row, j:] = m[u - start]
        self.changes[row, j:] = self.changes[row, 0] + 1
        self.stopped[row] = True


def count_to_marks(tally: Tally, row: int, m: np.ndarray, start: int) -> None:
    """Read the next piece of a row's walk at its marks and count its changes.

    ``m[i]`` is M(start + i).  For every mark u in the piece,
    ``values[row, j] = M(u)`` and, on census walks, ``changes[row, j]``
    counts the changes completing up to u.  The row's ``carry``, ``acc``
    and ``running`` then stand at the piece's end, so a walk fed piece by
    piece counts exactly as if it were read whole, unless it stops here.
    """
    marks, changes = tally.marks, tally.changes
    carry, acc = int(tally.carry[row]), int(tally.acc[row])
    end = start + m.size
    pos = 0
    for j in range(int(np.searchsorted(marks, start)), int(np.searchsorted(marks, end))):
        cut = int(marks[j]) - start
        if changes is not None:
            delta, carry = count_changes_chunk(m[pos : cut + 1], carry)
            acc += delta
            changes[row, j] = acc
        tally.values[row, j] = m[cut]
        pos = cut + 1
    if changes is not None and pos < m.size:
        delta, carry = count_changes_chunk(m[pos:], carry)
        acc += delta
    if tally.stops(row, acc, end):
        tally.stop_at_first_change(row, m, start, int(tally.carry[row]))
    tally.carry[row], tally.acc[row], tally.running[row] = carry, acc, m[-1]


def change_positions_chunk(
    values: np.ndarray, carry_sign: int, offset: int = 0
) -> tuple[list[int], int]:
    """Positions (by ``offset`` + local index) where a counted change completes."""
    s = np.sign(values)
    idx = np.flatnonzero(s)
    if idx.size == 0:
        return [], carry_sign
    nz = s[idx]
    pos = idx[1:][nz[1:] != nz[:-1]]
    out = [int(p) + offset for p in pos]
    if carry_sign != 0 and nz[0] != carry_sign:
        out.insert(0, int(idx[0]) + offset)
    return out, int(nz[-1])


def walk_steps(tally: Tally, row: int, steps: np.ndarray, start: int) -> None:
    """Walk the next piece of a row in int8 +-1/0 steps and read it at its marks.

    ``steps[i]`` is the step at integer start + i, and the row's
    ``running`` is M(start - 1), so |M(u)| <= u.  Marks, counts, state
    and stop advance as under :func:`count_to_marks` on ``cumsum(steps) + running``.

    A piece without a mark needs M only where it can change sign.  On a
    value-only walk (``changes`` None) that is nowhere, so the piece is
    summed.  On a census walk it is summed in chunks of ``_CHUNK`` steps;
    a chunk starting at |M| >= ``_CHUNK`` keeps the sign of its start,
    which is already the carry, so it is dropped, and the other chunks are
    cumsummed and counted in order as one run.  A piece with a mark, a
    partial chunk, no chunk to drop or its row's stop is cumsummed whole
    in the tally's buffer, in int32 (faster) below ``INT32_CEILING``.
    """
    n = steps.size
    marks = tally.marks
    running = tally.running[row]
    end = start + n
    j = int(np.searchsorted(marks, start))
    if j == marks.size or marks[j] >= end:
        if tally.changes is None:
            tally.running[row] = running + int(steps.sum())
            return
        if n % _CHUNK == 0:
            chunks = steps.reshape(-1, _CHUNK)
            sums = chunks.sum(axis=1, dtype=np.int16)
            ends = np.cumsum(sums, dtype=np.int64)
            ends += running
            before = ends - sums
            near = np.abs(before) < _CHUNK
            if not near.all():
                delta, carry = 0, int(tally.carry[row])
                if near.any():
                    rows = chunks[near].cumsum(axis=1, dtype=np.int16)
                    rows += before[near, None].astype(np.int16)
                    delta, carry = count_changes_chunk(rows.ravel(), carry)
                # a stop needs the piece's partial sums: the piece is not committed
                acc = tally.acc[row] + delta
                if not tally.stops(row, acc, end):
                    tally.carry[row], tally.acc[row], tally.running[row] = carry, acc, ends[-1]
                    return
    dtype = np.int32 if end <= INT32_CEILING else np.int64
    if tally.sums.size < n or tally.sums.dtype != dtype:
        tally.sums = np.empty(n, dtype=dtype)
    m = tally.sums[:n]
    steps.cumsum(dtype=dtype, out=m)
    m += dtype(running)
    count_to_marks(tally, row, m, start)
