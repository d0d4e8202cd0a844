"""Orthogonal-sequence walk models and their norm-deficit predictors.

Five selectable walks M(u) = sum_{n<=u} X_n:

``rmf``                  X_n = f(n), the random multiplicative function;
``iid_rademacher``       X_n independent uniform +-1;
``harmonic_rademacher``  X_n = r_n / sqrt(n) (non-unit variance stress model);
``sidon_cosine``         X_k = sqrt(2) cos(n_k U) on a greedy B2 sequence,
                         one uniform U on [0, 2pi) drives the whole path
                         (the sqrt(2) lifts the raw cosine variance 1/2 to 1);
``bounded_martingale``   X_n = r_n s_n with s_n = B if M(n-1) <= 0 else A,
                         fixed at A = 1/2 and B = 1.

Each model declares its mean/variance sequence and, where claimed, the
norm-deficit function psi with ||M(x)||_1 ~ sqrt(x)/psi(x): constant 1 for
the unit-variance examples, (1 + sqrt(loglog x)/2)^(1/2) for the
multiplicative walk.  The harmonic model is exposed as an out-of-hypothesis
stress case and declares no psi.

:func:`collect_walks` walks every model and is the one place that cuts
a sample range between worker processes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import signs
from .census import Tally, count_to_marks
from .engine import (
    PartialSumTrace,
    WalkResult,
    block_runs,
    run_walks,
    segment_length_for,
    walk_inputs,
)
from .errors import ParameterError
from .rmf import RmfWordSource
from .sieve import squarefree_count

KINDS = (
    "rmf",
    "iid_rademacher",
    "harmonic_rademacher",
    "sidon_cosine",
    "bounded_martingale",
)

MIAN_CHOWLA_MAX = 2000  # reachable limit; see mian_chowla
MARTINGALE_A = 0.5  # the bounded martingale's step amplitude while M > 0
MARTINGALE_B = 1.0  # and while M <= 0
SALT_SIDON = 0x1B87_3593_7AF1_6D2B
SALT_MARTINGALE = 0x6C62_272E_07BB_0142


@dataclass(frozen=True)
class SidonSet:
    """Strictly increasing integers with pairwise-distinct sums (B2)."""

    elements: tuple[int, ...]


@lru_cache(maxsize=None)
def mian_chowla(k: int) -> SidonSet:
    """First k terms of the greedy B2 sequence 1, 2, 4, 8, 13, 21, ...

    Greedy acceptance uses the equivalent distinct-differences test: c is
    the next term iff no c - a_j is already a difference of two terms.
    Rather than test each candidate against every term, a boolean table
    ``banned`` marks each c = a_j + d for a term a_j and a difference d, and
    is updated by the new pairs whenever a term is accepted; the next term
    is then the first unmarked candidate.

    ``k`` is capped at ``MIAN_CHOWLA_MAX`` = 2000 because the table needs
    about a_k bytes (2 a_k while it doubles) and the difference list 4 k^2
    bytes, and a_k grows about like k^2.7: a_1000 = 14,018,951 and
    a_2000 = 96,592,680.  k = 2000 takes 70-90 s and 314 MB peak RSS on a
    2-core host; k = 10^4 would need a_k ~ 7e9, several GB for the table
    alone.
    """
    if not (1 <= k <= MIAN_CHOWLA_MAX):
        raise ParameterError(f"mian_chowla needs 1 <= k <= {MIAN_CHOWLA_MAX}")
    elems = np.zeros(k, dtype=np.int64)
    elems[0] = 1
    diffs = np.zeros(k * (k - 1) // 2, dtype=np.int64)  # all a_i - a_j, i > j
    size = 1 << 12
    banned = np.zeros(size, dtype=bool)  # banned[c] = some c - a_j is used
    n = 1  # terms so far
    m = 0  # differences so far
    c = 2
    while n < k:
        if c >= size:
            # the table only ever held marks below size: add those in the new half
            banned = np.concatenate([banned, np.zeros(size, dtype=bool)])
            known = np.sort(diffs[:m])
            for a in elems[:n]:
                lo, hi = np.searchsorted(known, (size - a, 2 * size - a))
                banned[a + known[lo:hi]] = True
            size *= 2
            continue
        window = banned[c : c + (1 << 16)]
        i = int(np.argmin(window))
        if window[i]:
            c += window.size
            continue
        e = c + i
        new = e - elems[:n]
        diffs[m : m + n] = new
        m += n
        elems[n] = e
        n += 1
        # new pairs: every term with a new difference, and e with every difference
        for hits in ((elems[:n, None] + new[None, :]).ravel(), e + diffs[:m]):
            banned[hits[hits < size]] = True
        c = e + 1
    return SidonSet(elements=tuple(int(v) for v in elems))


@dataclass(frozen=True)
class ModelSpec:
    """A walk model kind; no kind takes a parameter."""

    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}; pick from {KINDS}")

    def mean(self, n: int) -> float:
        """Declared E X_n (exact)."""
        if self.kind == "rmf" and n == 1:
            return 1.0  # f(1) = 1 deterministically
        return 0.0

    def variance_bounds(self, n: int) -> tuple[float, float]:
        """Declared exact variance, as a (lo, hi) interval."""
        if n < 1:
            raise ParameterError("n must be >= 1")
        if self.kind in ("iid_rademacher", "sidon_cosine"):
            return (1.0, 1.0)
        if self.kind == "harmonic_rademacher":
            return (1.0 / n, 1.0 / n)
        if self.kind == "bounded_martingale":
            return (MARTINGALE_A**2, MARTINGALE_B**2)
        if n == 1:
            return (0.0, 0.0)
        v = 1.0 if squarefree_count(n) - squarefree_count(n - 1) == 1 else 0.0
        return (v, v)


def psi_predictor(model: ModelSpec, x: float) -> float:
    """Declared norm-deficit psi(x) (continuous, non-decreasing, >= 1)."""
    if x < 1:
        raise ParameterError(f"psi is declared on x >= 1, got {x}")
    if model.kind in ("iid_rademacher", "sidon_cosine", "bounded_martingale"):
        return 1.0
    if model.kind == "rmf":
        if x < math.e:
            raise ParameterError("rmf psi needs x >= e so loglog x >= 0")
        return math.sqrt(1.0 + 0.5 * math.sqrt(math.log(math.log(x))))
    raise ParameterError(
        f"model {model.kind!r} declares no psi (out-of-hypothesis stress model)"
    )


@dataclass(frozen=True)
class IidWordSource:
    """Engine source for the iid +-1 walk (index-keyed sign family)."""

    master_seed: int
    float_walk = False

    def begin(self, x_end: int, samples: range):
        return None

    def segment(self, state, lo: int, hi: int):
        return {"mn": signs.premix(np.arange(lo, hi, dtype=np.uint64))}

    def block_words(self, ctx, block: int):
        key = signs.block_key(self.master_seed, block, signs.SALT_INDEX)
        return signs.keyed_words(ctx["mn"], key), None


@dataclass(frozen=True)
class HarmonicWordSource(IidWordSource):
    """iid signs damped by 1/sqrt(n)."""

    float_walk = True

    def segment(self, state, lo: int, hi: int):
        ctx = super().segment(state, lo, hi)
        ctx["w"] = 1.0 / np.sqrt(np.arange(lo, hi, dtype=np.float64))
        return ctx

    def block_words(self, ctx, block: int):
        return super().block_words(ctx, block)[0], ctx["w"]


def _sidon_phase(master_seed: int, sample_index: int) -> float:
    return 2.0 * math.pi * signs.uniform01(master_seed, sample_index, SALT_SIDON)


def _collect_sidon(tally: Tally, terms: np.ndarray, samples: range, master_seed: int) -> None:
    x_end = terms.size
    phases = np.array([_sidon_phase(master_seed, s) for s in samples])
    # rows per chunk: keeps the three chunk-sized float temporaries near
    # 1.6 MB, in cache (at 16 MB two workers shared memory bandwidth and
    # each ran as slowly as one did alone)
    chunk = max(1, int(2e5) // x_end)
    root2 = math.sqrt(2.0)
    for i0 in range(0, len(samples), chunk):
        i1 = min(i0 + chunk, len(samples))
        m = np.cumsum(root2 * np.cos(np.outer(phases[i0:i1], terms)), axis=1)
        for row, path in zip(range(i0, i1), m):
            count_to_marks(tally, row, path, 1)


def _martingale_piece(r: np.ndarray, m: float, lo: float, hi: float) -> np.ndarray:
    """M after each step r[k] * s_k from M = m, where s_k = hi while M <= 0 else lo.

    The amplitude only changes when M crosses between <= 0 and > 0, so the
    piece is summed in windows of constant amplitude: a window runs to its
    end or to the step that flips the regime, and starts at 64 steps,
    doubling while no flip occurs.  Each window is summed in place in its
    slice of the output: the steps r * amp, then m added to the first, then
    a cumulative sum, which adds in sequence, so every value equals the
    step-by-step sum bit for bit.  Values past a window's flip are
    overwritten by the next window.
    """
    out = np.empty(r.size)
    i = 0
    width = 64
    while i < r.size:
        below = m <= 0.0
        c = out[i : i + width]
        np.multiply(r[i : i + width], hi if below else lo, out=c)
        c[0] += m
        c.cumsum(out=c)
        flip = c > 0.0 if below else c <= 0.0
        k = int(flip.argmax())
        n = k + 1 if flip[k] else c.size
        m = c[n - 1]
        i += n
        width = 64 if flip[k] else 2 * width
    return out


def _collect_martingale(tally: Tally, x_end: int, samples: range, master_seed: int) -> None:
    seg_len = segment_length_for(x_end)
    runs = block_runs(samples)
    one = np.uint64(1)
    for lo in range(1, x_end + 1, seg_len):
        mn = signs.premix(np.arange(lo, min(lo + seg_len, x_end + 1), dtype=np.uint64))
        for run in runs:
            key = signs.block_key(master_seed, run.start >> 6, SALT_MARTINGALE)
            words = signs.keyed_words(mn, key)
            for row, s in enumerate(run, run.start - samples.start):
                if tally.stopped[row]:
                    continue
                r = 1.0 - 2.0 * ((words >> np.uint64(s & 63)) & one).astype(np.float64)
                m = _martingale_piece(r, tally.running[row], MARTINGALE_A, MARTINGALE_B)
                count_to_marks(tally, row, m, lo)


def _walk_run(model, master_seed, x_end, marks, census, first_change, terms, samples):
    """The walks of one validated sample range, in this process."""
    if model.kind not in ("sidon_cosine", "bounded_martingale"):
        sources = {"rmf": RmfWordSource, "iid_rademacher": IidWordSource,
                   "harmonic_rademacher": HarmonicWordSource}
        return run_walks(sources[model.kind](master_seed), x_end, marks, samples,
                         census=census, first_change=first_change)
    tally = Tally(len(samples), marks, np.float64, census, first_change)
    if model.kind == "sidon_cosine":
        _collect_sidon(tally, terms, samples, master_seed)
    else:
        _collect_martingale(tally, x_end, samples, master_seed)
    return WalkResult(marks, tally.values, tally.changes)


def peak_rss_mb() -> float | None:
    """This process's peak RSS in MB (``VmHWM``), or None without ``/proc``."""
    try:
        with open("/proc/self/status") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return None


def usable_cpus() -> int:
    """The CPUs this process may use: its affinity set where the platform has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def collect_walks(
    model: ModelSpec,
    x_end: int,
    marks,
    sample_indices: range,
    master_seed: int,
    *,
    census: bool = True,
    workers: int = 1,
    budget: int | None = None,
    first_change: bool = False,
) -> WalkResult:
    """Uniform multi-sample collection across all model kinds.

    Row i is sample ``sample_indices.start + i`` of a step-1 ``range``.
    The one place where samples are split between processes:
    :func:`engine.block_runs` cuts the range into runs of whole 64-sample
    blocks, at most ``workers`` (at least 1, else ``ParameterError``) and
    no more than the CPUs this process may use.  Each run is walked in its
    own process by the model's one-process walker
    (:func:`run_walks` for rmf, iid and harmonic, the Sidon and martingale
    collectors otherwise), each reading its walks through one
    :class:`census.Tally`, and the runs are concatenated in sample order.
    A sample's row depends only on (model, seed, sample, marks), so the
    output is bit-identical for every worker count.  ``first_change``
    (census runs only) has each model's tally stop a lane at its first
    sign change after ``marks[0]`` (see :func:`run_walks`).
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    signs.check_seed(master_seed)
    x_end, marks, samples = walk_inputs(x_end, marks, sample_indices, budget)
    Tally.check_request(census, first_change)
    terms = None
    if model.kind == "sidon_cosine":
        # built once here: a worker rebuilding mian_chowla(1000) pays ~4 s
        terms = np.asarray(mian_chowla(x_end).elements, dtype=np.float64)
    walk = partial(_walk_run, model, master_seed, x_end, marks, census, first_change, terms)
    runs = block_runs(samples, min(workers, usable_cpus()))
    if len(runs) == 1:
        return walk(samples)
    with ProcessPoolExecutor(max_workers=len(runs)) as pool:
        parts = list(pool.map(walk, runs))
    changes = np.concatenate([p.changes for p in parts]) if census else None
    return WalkResult(marks, np.concatenate([p.values for p in parts]), changes)


def sample_path(
    model: ModelSpec,
    x: int,
    master_seed: int,
    sample_index: int = 0,
    checkpoints=None,
    *,
    budget: int | None = None,
) -> PartialSumTrace:
    """One sample's trace of the model walk up to x."""
    reqs = checkpoints or []
    samples = range(sample_index, sample_index + 1)
    res = collect_walks(model, x, [*reqs, x], samples, master_seed, census=True, budget=budget)
    return PartialSumTrace.of_walk(res, reqs)
