import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rmflab import engine, models, signs
from rmflab.analysis import count_sign_changes
from rmflab.errors import ParameterError
from rmflab.models import (
    KINDS,
    MARTINGALE_A,
    MARTINGALE_B,
    MIAN_CHOWLA_MAX,
    SALT_MARTINGALE,
    ModelSpec,
    collect_walks,
    mian_chowla,
    psi_predictor,
    sample_path,
)


def martingale_per_integer(a, b, x_end, marks, samples, master_seed):
    """Reference bounded-martingale walk: one step for all samples per integer.

    M(n) = M(n-1) + r_n s_n with s_n = b if M(n-1) <= 0 else a, the change
    count kept by a direct zero-skip comparison against the last nonzero sign.
    """
    samples = np.asarray(samples, dtype=np.int64)
    keys = np.array(
        [signs.block_key(master_seed, int(s) >> 6, SALT_MARTINGALE) for s in samples],
        dtype=np.uint64,
    )
    lanes = (samples & 63).astype(np.uint64)
    m = np.zeros(samples.size)
    last_sign = np.zeros(samples.size, dtype=np.int8)
    counts = np.zeros(samples.size, dtype=np.int64)
    values = np.zeros((samples.size, len(marks)))
    changes = np.zeros((samples.size, len(marks)), dtype=np.int64)
    mark_at = {int(mk): j for j, mk in enumerate(marks)}
    for n in range(1, x_end + 1):
        words = signs.mix64_array(keys ^ np.uint64(signs.mix64((n * signs.GOLDEN) & signs.MASK64)))
        r = 1.0 - 2.0 * ((words >> lanes) & np.uint64(1)).astype(np.float64)
        m += r * np.where(m <= 0.0, b, a)
        s = np.sign(m).astype(np.int8)
        nz = s != 0
        counts += (nz & (last_sign != 0) & (s != last_sign)).astype(np.int64)
        last_sign = np.where(nz, s, last_sign)
        j = mark_at.get(n)
        if j is not None:
            values[:, j] = m
            changes[:, j] = counts
    return values, changes


class TestMianChowla:
    def test_first_terms(self):
        assert mian_chowla(3).elements == (1, 2, 4)
        assert mian_chowla(10).elements == (1, 2, 4, 8, 13, 21, 31, 45, 66, 81)

    def test_pairwise_sums_distinct(self):
        elems = mian_chowla(60).elements
        sums = [elems[i] + elems[j] for i in range(60) for j in range(i, 60)]
        assert len(sums) == len(set(sums))

    def test_representation_cap(self):
        # every m has at most 3 ordered representations m = n_j +- n_k
        s = mian_chowla(60)
        from collections import Counter

        reps = Counter()
        for a in s.elements:
            for b in s.elements:
                reps[a + b] += 1
                if a - b >= 1:
                    reps[a - b] += 1
        assert max(reps.values()) <= 3

    def test_matches_one_candidate_at_a_time_greedy(self):
        # k = 100 reaches past three growths of the forbidden-candidate table
        elems, diffs = [1], set()
        c = 1
        while len(elems) < 100:
            c += 1
            new = {c - a for a in elems}
            if not new & diffs:
                diffs |= new
                elems.append(c)
        assert mian_chowla(100).elements == tuple(elems)

    def test_range_errors(self):
        with pytest.raises(ParameterError):
            mian_chowla(0)
        with pytest.raises(ParameterError):
            mian_chowla(MIAN_CHOWLA_MAX + 1)


class TestSamplePath:
    def test_iid_single_step(self):
        tr = sample_path(ModelSpec("iid_rademacher"), 1, master_seed=5, sample_index=3)
        assert tr.final_value in (-1, 1)

    def test_sidon_fixed_phase(self, monkeypatch):
        # U = 0: every term is sqrt(2) cos(0), so M(k) = sqrt(2) k
        monkeypatch.setattr(models, "_sidon_phase", lambda master_seed, sample_index: 0.0)
        tr = sample_path(ModelSpec("sidon_cosine"), 37, master_seed=1)
        assert tr.final_value == pytest.approx(math.sqrt(2) * 37, rel=1e-12)

    def test_determinism_and_sample_separation(self):
        a = sample_path(ModelSpec("harmonic_rademacher"), 500, 9, sample_index=2)
        b = sample_path(ModelSpec("harmonic_rademacher"), 500, 9, sample_index=2)
        c = sample_path(ModelSpec("harmonic_rademacher"), 500, 9, sample_index=3)
        assert a == b
        assert a.final_value != c.final_value or a.sign_change_count != c.sign_change_count

    def test_rmf_kind_delegates_to_multiplicative_walk(self):
        from rmflab.rmf import SignOracle, rmf_trace

        tr = sample_path(ModelSpec("rmf"), 300, master_seed=21, sample_index=4)
        ref = rmf_trace(SignOracle(21, 4), 300)
        assert tr.final_value == ref.final_value
        assert tr.sign_change_count == ref.sign_change_count

    def test_martingale_steps_bounded(self):
        spec = ModelSpec("bounded_martingale")
        res = collect_walks(spec, 200, list(range(1, 201)), range(3), 5)
        steps = np.diff(np.hstack([np.zeros((3, 1)), res.values]), axis=1)
        mags = np.abs(steps)
        assert np.all((mags >= MARTINGALE_A - 1e-12))
        assert np.all((mags <= MARTINGALE_B + 1e-12))

    def test_checkpoint_validation(self):
        with pytest.raises(ParameterError):
            sample_path(ModelSpec("iid_rademacher"), 10, 1, checkpoints=[20])


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_splits_samples_between_workers(kind, monkeypatch):
    # 200 samples are 4 blocks: 2 workers get two contiguous runs, and so do
    # 3 workers on 2 CPUs
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(models, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs = [
        collect_walks(ModelSpec(kind), 300, [7, 150, 300], range(3, 203), 41, workers=w)
        for w in (1, 2, 3)
    ]
    assert pools == [2, 2]
    for res in runs[1:]:
        assert res.values.dtype == runs[0].values.dtype
        assert np.array_equal(res.values, runs[0].values)
        assert np.array_equal(res.changes, runs[0].changes)


@pytest.mark.parametrize("cpus, workers, pool", [(2, 100_000, 2), (4, 3, 3), (None, 100_000, 3)])
def test_pool_is_capped_at_the_available_cpus(cpus, workers, pool, monkeypatch):
    # 1000 samples are 16 blocks, walked here by a serial stand-in for the
    # pool; cpus None is a platform without sched_getaffinity, where
    # os.cpu_count (3 here) decides
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(models, "ProcessPoolExecutor", SerialPool)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    spec, marks = ModelSpec("rmf"), [7, 150, 300]
    res = collect_walks(spec, 300, marks, range(1000), 41, workers=workers)
    assert sizes == [pool]
    ref = collect_walks(spec, 300, marks, range(1000), 41, workers=1)
    assert np.array_equal(res.values, ref.values)
    assert np.array_equal(res.changes, ref.changes)


class TestMartingaleWalk:
    SAMPLES = range(60, 135)  # crosses blocks 0, 1 and 2, partial at both ends

    @pytest.mark.parametrize("a, b", [(0.5, 1.0), (1.0, 1.0), (0.3, 0.9), (0.25, 2.0)])
    def test_matches_per_integer_reference(self, a, b, monkeypatch):
        # segments of 256 integers put marks on both sides of segment edges;
        # the walk reads its amplitudes from the module at call time
        monkeypatch.setattr(engine, "MIN_SEGMENT", 256)
        monkeypatch.setattr(models, "MARTINGALE_A", a)
        monkeypatch.setattr(models, "MARTINGALE_B", b)
        spec = ModelSpec("bounded_martingale")
        x_end = 1500
        marks = [1, 2, 64, 65, 255, 256, 257, 512, 513, 1024, x_end]
        ref_values, ref_changes = martingale_per_integer(a, b, x_end, marks, self.SAMPLES, 17)
        res = collect_walks(spec, x_end, marks, self.SAMPLES, 17)
        assert np.array_equal(res.values, ref_values)
        assert np.array_equal(res.changes, ref_changes)
        plain = collect_walks(spec, x_end, marks, self.SAMPLES, 17, census=False)
        assert np.array_equal(plain.values, ref_values)
        assert plain.changes is None

    @pytest.mark.parametrize("kind", ["sidon_cosine", "bounded_martingale"])
    def test_changes_match_count_sign_changes_on_full_path(self, kind):
        x = 400
        res = collect_walks(ModelSpec(kind), x, range(1, x + 1), self.SAMPLES, 23)
        assert res.changes[:, -1].sum() > 0
        for values, changes in zip(res.values, res.changes):
            positions = count_sign_changes(values).positions
            assert np.array_equal(changes, np.searchsorted(positions, np.arange(x), side="right"))


class TestVarianceDeclarations:
    def test_declared_values(self):
        assert ModelSpec("iid_rademacher").variance_bounds(7) == (1.0, 1.0)
        assert ModelSpec("sidon_cosine").variance_bounds(7) == (1.0, 1.0)
        assert ModelSpec("harmonic_rademacher").variance_bounds(4) == (0.25, 0.25)
        assert ModelSpec("bounded_martingale").variance_bounds(3) == (0.25, 1.0)
        assert ModelSpec("rmf").variance_bounds(4) == (0.0, 0.0)  # not squarefree
        assert ModelSpec("rmf").variance_bounds(6) == (1.0, 1.0)

    def test_empirical_variance_within_declared(self):
        samples = 4000
        for kind in ("iid_rademacher", "harmonic_rademacher", "sidon_cosine"):
            spec = ModelSpec(kind)
            res = collect_walks(spec, 20, list(range(1, 21)), range(samples), 31)
            steps = np.diff(np.hstack([np.zeros((samples, 1)), res.values]), axis=1)
            for n in (1, 5, 20):
                lo, hi = spec.variance_bounds(n)
                emp = steps[:, n - 1].var()
                se = 5 * steps[:, n - 1].std() ** 2 * math.sqrt(2.0 / samples)
                assert lo - se <= emp <= hi + se


class TestOrthogonality:
    @pytest.mark.parametrize(
        "kind", ["iid_rademacher", "harmonic_rademacher", "sidon_cosine", "bounded_martingale", "rmf"]
    )
    def test_step_products_center_on_zero(self, kind):
        samples = 10**4
        spec = ModelSpec(kind)
        res = collect_walks(spec, 50, list(range(1, 51)), range(samples), 8, census=False)
        vals = res.values.astype(np.float64)
        steps = np.diff(np.hstack([np.zeros((samples, 1)), vals]), axis=1)
        rng = np.random.default_rng(0)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 50, size=(60, 2)) if a != b}
        for i, j in pairs:
            prod = steps[:, i] * steps[:, j]
            sd = prod.std(ddof=1)
            if sd == 0:
                assert abs(prod.mean()) < 1e-12  # a zero step (rmf off-squarefree)
                continue
            assert abs(prod.mean()) <= 5 * sd / math.sqrt(samples)


class TestMartingaleConditionalMean:
    def test_zero_mean_within_past_sign_strata(self):
        samples = 2 * 10**4
        spec = ModelSpec("bounded_martingale")
        res = collect_walks(spec, 30, list(range(1, 31)), range(samples), 13, census=False)
        m = np.hstack([np.zeros((samples, 1)), res.values])
        steps = np.diff(m, axis=1)
        for n in (2, 7, 19):
            past = m[:, n - 1]
            for stratum in (past <= 0, past > 0):
                if stratum.sum() < 100:
                    continue
                xs = steps[stratum, n - 1]
                assert abs(xs.mean()) <= 5 * xs.std(ddof=1) / math.sqrt(stratum.sum())


class TestPsi:
    def test_constant_models(self):
        for kind in ("iid_rademacher", "sidon_cosine", "bounded_martingale"):
            assert psi_predictor(ModelSpec(kind), 12345.0) == 1.0

    def test_rmf_value(self):
        x = math.exp(math.exp(4.0))
        assert psi_predictor(ModelSpec("rmf"), x) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_harmonic_declares_none(self):
        with pytest.raises(ParameterError):
            psi_predictor(ModelSpec("harmonic_rademacher"), 100.0)

    @staticmethod
    def psi_ratios(kind, x, N):
        """(psi(e^n x_j) / psi(x_j), n, x_j) for x_j = x, 2x, ..., 32x and n = 1..N."""
        spec = ModelSpec(kind)
        return [
            (psi_predictor(spec, math.exp(n) * xj) / psi_predictor(spec, xj), n, xj)
            for xj in (x * 2.0**j for j in range(6))
            for n in range(1, N + 1)
        ]

    def test_stability_constant_exact_zero(self):
        assert all(r == 1.0 for r, _, _ in self.psi_ratios("iid_rademacher", math.exp(60.0), 4))

    def test_stability_rmf_in_regime(self):
        # slow variation: psi(e^n x) = psi(x) (1 + O(n / log x)), here with constant 10,
        # and psi non-decreasing
        for r, n, xj in self.psi_ratios("rmf", math.exp(100.0), 5):
            assert 1.0 <= r <= 1.0 + 10.0 * n / math.log(xj)


class TestSidonMoments:
    def test_fourth_moment_ratio_band(self):
        res = collect_walks(ModelSpec("sidon_cosine"), 100, [100], range(2000), 6, census=False)
        m = res.values[:, 0]
        ratio = (m**4).mean() / (m**2).mean() ** 2
        assert 1.0 <= ratio <= 10.0
