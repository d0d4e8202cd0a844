"""Zero-skip sign-change counting primitives.

Policy: zeros never carry sign information.  The sign sequence is first
stripped of zeros and a change is counted for every adjacent pair of
opposite signs; a ``+ ... 0 ... -`` pattern counts exactly once.  Counting
functions thread a carry (the last nonzero sign seen so far) so that long
walks can be processed in streaming chunks and window counts

    V(a, b] = V(b) - V(a)

stay exact across chunk boundaries.

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


def count_to_marks(
    m: np.ndarray,
    start: int,
    marks: np.ndarray,
    carry: int,
    acc: int,
    values_row: np.ndarray,
    changes_row: np.ndarray | None,
) -> tuple[int, int]:
    """Read one piece of a walk at its marks and count its changes.

    ``m[i]`` is M(start + i) and ``marks`` is sorted.  For every mark u in
    the piece, ``values_row[j] = M(u)`` and, on census runs (``changes_row``
    given), ``changes_row[j]`` is ``acc`` plus the changes completing up to
    u.  ``carry``/``acc`` are the last nonzero sign and the change count
    before the piece; the pair after it is returned, so a walk fed piece by
    piece counts exactly as if it were read whole.
    """
    end = start + m.size
    pos = 0
    for j in range(int(np.searchsorted(marks, start)), int(np.searchsorted(marks, end))):
        cut = int(marks[j]) - start
        if changes_row is not None:
            delta, carry = count_changes_chunk(m[pos : cut + 1], carry)
            acc += delta
            changes_row[j] = acc
        values_row[j] = m[cut]
        pos = cut + 1
    if changes_row is not None and pos < m.size:
        delta, carry = count_changes_chunk(m[pos:], carry)
        acc += delta
    return carry, acc


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


def walk_steps(
    steps: np.ndarray,
    start: int,
    running: int,
    marks: np.ndarray,
    carry: int,
    acc: int,
    values_row: np.ndarray,
    changes_row: np.ndarray | None,
    out: np.ndarray,
) -> tuple[int, int, int]:
    """Walk one piece of int8 +-1/0 steps and read it at its marks.

    ``steps[i]`` is the step at integer start + i and ``running`` is
    M(start - 1).  Marks, counts and ``carry``/``acc`` behave as in
    :func:`count_to_marks` on ``cumsum(steps) + running``; the returned
    triple is ``(carry, acc, running)`` after the piece.

    A piece without a mark needs M only where it can change sign.  On a
    value-only walk (``changes_row`` None) that is nowhere, so the piece is
    summed.  On a census walk it is summed in chunks of ``_CHUNK`` steps;
    a chunk starting at |M| >= ``_CHUNK`` keeps the sign of its start,
    which is already the carry, so it is dropped, and the other chunks are
    cumsummed and counted in order as one run.  A piece with a mark, a
    partial chunk or no chunk to drop is cumsummed whole into ``out``
    (at least ``steps.size`` long; its dtype holds every |M|).
    """
    n = steps.size
    j = int(np.searchsorted(marks, start))
    if j == marks.size or marks[j] >= start + n:
        if changes_row is None:
            return carry, acc, running + int(steps.sum())
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
                    delta, carry = count_changes_chunk(rows.ravel(), carry)
                    acc += delta
                return carry, acc, int(ends[-1])
    m = out[:n]
    steps.cumsum(dtype=m.dtype, out=m)
    m += m.dtype.type(running)
    carry, acc = count_to_marks(m, start, marks, carry, acc, values_row, changes_row)
    return carry, acc, int(m[-1])
