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
(partial sums) or :func:`walk_steps` (+-1/0 steps).

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

_BLOCK = 4096
_CHUNK = 256  # steps per chunk of walk_steps' sparse census


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
    marks the rows :meth:`stop_at_first_change` ended.
    """

    def __init__(self, rows: int, marks: np.ndarray, dtype, census: bool):
        self.marks = marks
        self.values = np.zeros((rows, marks.size), dtype=dtype)
        self.changes = np.zeros((rows, marks.size), dtype=np.int64) if census else None
        self.running = np.zeros(rows, dtype=dtype)
        self.carry = np.zeros(rows, dtype=np.int64)
        self.acc = np.zeros(rows, dtype=np.int64)
        self.stopped = np.zeros(rows, dtype=bool)

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
    piece counts exactly as if it were read whole.
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


def walk_steps(tally: Tally, row: int, steps: np.ndarray, start: int, out: np.ndarray) -> None:
    """Walk the next piece of a row in int8 +-1/0 steps and read it at its marks.

    ``steps[i]`` is the step at integer start + i, and the row's
    ``running`` is M(start - 1).  Marks, counts and the row's state
    advance as under :func:`count_to_marks` on ``cumsum(steps) + running``.

    A piece without a mark needs M only where it can change sign.  On a
    value-only walk (``changes`` None) that is nowhere, so the piece is
    summed.  On a census walk it is summed in chunks of ``_CHUNK`` steps;
    a chunk starting at |M| >= ``_CHUNK`` keeps the sign of its start,
    which is already the carry, so it is dropped, and the other chunks are
    cumsummed and counted in order as one run.  A piece with a mark, a
    partial chunk or no chunk to drop is cumsummed whole into ``out``
    (at least ``steps.size`` long; its dtype holds every |M|).
    """
    n = steps.size
    marks = tally.marks
    running = tally.running[row]
    j = int(np.searchsorted(marks, start))
    if j == marks.size or marks[j] >= start + n:
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
                if near.any():
                    rows = chunks[near].cumsum(axis=1, dtype=np.int16)
                    rows += before[near, None].astype(np.int16)
                    delta, tally.carry[row] = count_changes_chunk(rows.ravel(), int(tally.carry[row]))
                    tally.acc[row] += delta
                tally.running[row] = ends[-1]
                return
    m = out[:n]
    steps.cumsum(dtype=m.dtype, out=m)
    m += m.dtype.type(running)
    count_to_marks(tally, row, m, start)
