import numpy as np
import pytest

from rmflab import census, engine, models
from rmflab.engine import run_walks
from rmflab.errors import ParameterError, ResourceError
from rmflab.models import KINDS, HarmonicWordSource, IidWordSource, ModelSpec, collect_walks
from rmflab.rmf import RmfWordSource
from rmflab.sieve import primes_up_to

from oracle import harmonic_walks, radical_reference, sign_words_array


def test_marks_validation():
    src = IidWordSource(master_seed=1)
    with pytest.raises(ParameterError):
        run_walks(src, 10, [], range(1))
    with pytest.raises(ParameterError):
        run_walks(src, 10, [11], range(1))
    with pytest.raises(ParameterError):
        run_walks(src, 10, [0], range(1))
    with pytest.raises(ParameterError):
        run_walks(src, 10, [5], range(0))


@pytest.mark.parametrize(
    "samples",
    [[0, 1], np.arange(2), range(0, 4, 2), range(0), range(-1, 1), range(2**63, 2**63 + 1)],
    ids=["list", "array", "step-2", "empty", "negative", "past-2^63"],
)
def test_samples_must_be_a_step_1_range(samples):
    with pytest.raises(ParameterError):
        run_walks(IidWordSource(master_seed=1), 10, [5], samples)
    with pytest.raises(ParameterError):
        collect_walks(ModelSpec("iid_rademacher"), 10, [5], samples, 1)


@pytest.mark.parametrize("workers", [0, -3])
def test_nonpositive_workers_rejected(workers):
    with pytest.raises(ParameterError):
        collect_walks(ModelSpec("iid_rademacher"), 10, [5], range(1), 1, workers=workers)


@pytest.mark.parametrize("lo, hi", [(1, 500), (10**6 - 123, 10**6 + 877)])
def test_block_words_scale(lo, hi):
    # each step is its lane's sign times the scale block_words returns
    rmf = RmfWordSource(master_seed=5)
    _, scale = rmf.block_words(rmf.segment(rmf.begin(hi - 1, range(192)), lo, hi), 2)
    sqf = radical_reference(lo, hi, primes_up_to(1000))[0]
    assert not rmf.float_walk and scale.dtype == bool and np.array_equal(scale, sqf)
    iid, harmonic = IidWordSource(master_seed=5), HarmonicWordSource(master_seed=5)
    iid_words, iid_scale = iid.block_words(iid.segment(None, lo, hi), 2)
    assert not iid.float_walk and iid_scale is None
    words, scale = harmonic.block_words(harmonic.segment(None, lo, hi), 2)
    assert harmonic.float_walk and np.array_equal(words, iid_words)
    assert scale.tobytes() == (1.0 / np.sqrt(np.arange(lo, hi, dtype=np.float64))).tobytes()


def test_budget_guardrail():
    src = IidWordSource(master_seed=1)
    with pytest.raises(ResourceError) as err:
        run_walks(src, 10**6, [10**6], range(10), budget=10**6)
    assert err.value.required == 10**7


def test_iid_walk_matches_direct_hash():
    from rmflab import signs

    seed, sample = 99, 70  # block 1, lane 6
    res = run_walks(IidWordSource(master_seed=seed), 200, [1, 100, 200], range(sample, sample + 1))
    key = signs.block_key(seed, sample >> 6, signs.SALT_INDEX)
    words = sign_words_array(key, np.arange(1, 201, dtype=np.int64))
    steps = 1 - 2 * ((words >> np.uint64(sample & 63)) & np.uint64(1)).astype(np.int64)
    walk = np.cumsum(steps)
    assert res.values[0].tolist() == [walk[0], walk[99], walk[199]]
    s = np.sign(walk)
    nz = s[s != 0]
    assert res.changes[0, -1] == int(np.count_nonzero(nz[1:] != nz[:-1]))


def test_cumulative_changes_difference_over_windows():
    res = run_walks(IidWordSource(master_seed=3), 3000, [1000, 2000, 3000], range(32))
    assert np.all(np.diff(res.changes, axis=1) >= 0)
    full = run_walks(IidWordSource(master_seed=3), 3000, [3000], range(32))
    assert np.array_equal(res.changes[:, -1], full.changes[:, 0])


def test_worker_count_invariance():
    rmf = ModelSpec("rmf")
    a = collect_walks(rmf, 5000, [5000], range(130), 11, census=True, workers=1)
    b = collect_walks(rmf, 5000, [5000], range(130), 11, census=True, workers=2)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.changes, b.changes)


def test_segment_length_invariance(monkeypatch):
    src = RmfWordSource(master_seed=11)
    monkeypatch.setattr(engine, "MIN_SEGMENT", 4001)
    a = run_walks(src, 4000, [1, 1234, 4000], range(5))
    monkeypatch.setattr(engine, "MIN_SEGMENT", 777)
    b = run_walks(src, 4000, [1, 1234, 4000], range(5))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.changes, b.changes)


HARMONIC_SEED, HARMONIC_END, HARMONIC_MARKS = 31, 20_000, [1000, 5000, 20_000]


@pytest.fixture(scope="module")
def harmonic_oracle_values():
    """M at HARMONIC_MARKS of 70 harmonic walks, each summed in one pass."""
    cols = np.array(HARMONIC_MARKS) - 1
    return harmonic_walks(HARMONIC_SEED, 70, HARMONIC_END)[:, cols]


@pytest.mark.parametrize("setting", ["default", "segment-777", "piece-64", "workers-2"])
def test_float_walk_is_the_sequential_sum(monkeypatch, setting, harmonic_oracle_values):
    # the harmonic walk must not depend on segment length, piece length or
    # workers: every value is the one-pass sum of r_n / sqrt(n)
    if setting == "segment-777":
        monkeypatch.setattr(engine, "MIN_SEGMENT", 777)
    if setting == "piece-64":
        monkeypatch.setattr(engine, "PIECE", 64)
    res = collect_walks(ModelSpec("harmonic_rademacher"), HARMONIC_END, HARMONIC_MARKS,
                        range(70), HARMONIC_SEED, workers=2 if setting == "workers-2" else 1)
    assert np.array_equal(res.values, harmonic_oracle_values)


def test_int32_and_int64_paths_agree(monkeypatch):
    src = RmfWordSource(master_seed=17)
    a = run_walks(src, 3000, [1500, 3000], range(70))
    monkeypatch.setattr(census, "INT32_CEILING", 0)  # every piece ends past it: int64 sums
    b = run_walks(src, 3000, [1500, 3000], range(70))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.changes, b.changes)


def test_sample_subsets_see_identical_streams():
    # sample 70's walk must not depend on which other samples run with it
    src = IidWordSource(master_seed=123)
    alone = run_walks(src, 500, [500], range(70, 71))
    grouped = run_walks(src, 500, [500], range(128))
    assert alone.values[0, 0] == grouped.values[70, 0]
    assert alone.changes[0, 0] == grouped.changes[70, 0]


@pytest.mark.parametrize("workers", [1, 2])
def test_first_change_keeps_window_indicators(monkeypatch, workers):
    monkeypatch.setattr(engine, "MIN_SEGMENT", 500)
    rmf = ModelSpec("rmf")
    marks = [300, 700, 1500, 4000, 9000]
    full = collect_walks(rmf, 9000, marks, range(140), 29)
    fast = collect_walks(rmf, 9000, marks, range(140), 29, workers=workers, first_change=True)
    assert np.array_equal(fast.changes[:, 0], full.changes[:, 0])
    assert np.array_equal(fast.values[:, 0], full.values[:, 0])
    for j in range(1, len(marks)):
        want = full.changes[:, j] - full.changes[:, 0] >= 1
        assert np.array_equal(fast.changes[:, j] - fast.changes[:, 0] >= 1, want)
    # lanes without a change after the first mark walk to the end unchanged
    quiet = full.changes[:, -1] == full.changes[:, 0]
    assert quiet.any() and not quiet.all()
    assert np.array_equal(fast.values[quiet], full.values[quiet])


def test_first_change_needs_census(monkeypatch):
    with pytest.raises(ParameterError, match="first_change needs a census run"):
        run_walks(IidWordSource(master_seed=1), 10, [5], range(1), census=False, first_change=True)

    def no_build(n):
        raise AssertionError(f"mian_chowla({n}) built for a refused walk")

    # every model refuses it, the Sidon walk before it builds its terms
    monkeypatch.setattr(models, "mian_chowla", no_build)
    for kind in KINDS:
        with pytest.raises(ParameterError, match="first_change needs a census run"):
            collect_walks(ModelSpec(kind), STOP_END, [100, STOP_END], range(64), 3, census=False,
                          first_change=True)


FIRST_CHANGE_MARKS = [300, 700, 1500, 2200, 3000]
# x_end 600 keeps mian_chowla short: 0.7 s on 2 cores, against 3.6 s at 1000
STOP_END, STOP_MARKS = 600, [100, 230, 380, 520, 600]


@pytest.fixture(scope="module")
def dense_rmf_walk():
    """M(u) and V(u) of 140 rmf walks at every u <= 3000."""
    return run_walks(RmfWordSource(master_seed=29), 3000, range(1, 3001), range(140))


# (PIECE, FIRST_PIECE): ungraded pieces of 64; pieces grading 8, 8, 16, 32,
# 64; the module's own, which grade 1024, 1024, 2048 on a 3000-integer segment
PIECES = [pytest.param(64, 64, id="64"), pytest.param(64, 8, id="64-graded"),
          pytest.param(engine.PIECE, engine.FIRST_PIECE, id=str(engine.PIECE))]


@pytest.mark.parametrize("piece, first_piece", PIECES)
def test_first_change_output_independent_of_segments_and_workers(monkeypatch, piece,
                                                                  first_piece):
    monkeypatch.setattr(engine, "PIECE", piece)
    rmf = ModelSpec("rmf")

    def walk(seg, workers, first):
        # the pool forks after the patches, so workers see them too
        monkeypatch.setattr(engine, "MIN_SEGMENT", seg)
        monkeypatch.setattr(engine, "FIRST_PIECE", first)
        return collect_walks(rmf, 3000, FIRST_CHANGE_MARKS, range(140), 29, workers=workers,
                             first_change=True)

    ungraded = walk(500, 1, piece)
    for seg in (500, 777, 9000):
        for workers in (1, 2):
            res = walk(seg, workers, first_piece)
            assert np.array_equal(res.values, ungraded.values)
            assert np.array_equal(res.changes, ungraded.changes)


def test_only_first_change_walks_grade_their_pieces(monkeypatch):
    monkeypatch.setattr(engine, "PIECE", 64)
    monkeypatch.setattr(engine, "FIRST_PIECE", 8)
    monkeypatch.setattr(engine, "MIN_SEGMENT", 777)
    pieces = []

    def spy(tally, row, steps, start):
        if row == 0:
            pieces.append((start, steps.size))
        walk(tally, row, steps, start)

    walk = engine.walk_steps
    monkeypatch.setattr(engine, "walk_steps", spy)
    src = RmfWordSource(master_seed=29)
    # without first_change every piece is PIECE long, bar each segment's last
    run_walks(src, 3000, FIRST_CHANGE_MARKS, range(1))
    segment_ends = [778, 1555, 2332, 3001]
    assert [start + size for start, size in pieces if size != 64] == segment_ends
    assert sum(size for _, size in pieces) == 3000
    # with it the pieces grade up from FIRST_PIECE at integer 1
    pieces.clear()
    run_walks(src, 3000, [3000], range(1), first_change=True)
    assert pieces[:6] == [(1, 8), (9, 8), (17, 16), (33, 32), (65, 64), (129, 64)]
    assert sum(size for _, size in pieces) == 3000


@pytest.mark.parametrize("piece, first_piece", PIECES)
@pytest.mark.parametrize("on_change", [False, True])
def test_stopped_lane_reports_walk_at_its_first_change(monkeypatch, piece, first_piece,
                                                       on_change, dense_rmf_walk):
    check_stopped_lanes(monkeypatch, dense_rmf_walk, "rmf", FIRST_CHANGE_MARKS, piece=piece,
                        first_piece=first_piece, segment=777, workers=1, on_change=on_change)


@pytest.mark.parametrize("piece, first_piece", PIECES)
@pytest.mark.parametrize("on_change", [False, True])
def test_sparse_stopped_lane_reports_walk_at_its_first_change(monkeypatch, piece, first_piece,
                                                              on_change, dense_rmf_walk):
    # chunks of 8 steps: the piece where a lane stops may have been skipped
    # chunk by chunk before its partial sums are taken again
    monkeypatch.setattr(census, "_CHUNK", 8)
    check_stopped_lanes(monkeypatch, dense_rmf_walk, "rmf", FIRST_CHANGE_MARKS, piece=piece,
                        first_piece=first_piece, segment=777, workers=1, on_change=on_change)


@pytest.fixture(scope="module")
def dense_walks():
    """M(u) and V(u) of 140 walks of every kind at every u <= STOP_END."""
    return {kind: collect_walks(ModelSpec(kind), STOP_END, range(1, STOP_END + 1), range(140), 29)
            for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("on_change", [False, True])
@pytest.mark.parametrize("setting", ["piece-64-chunk-8", "graded-64-chunk-8-workers-2",
                                     "workers-2"])
def test_every_kind_stops_at_its_first_change(monkeypatch, kind, on_change, setting, dense_walks):
    # segments of 97 integers cut the martingale's walk into pieces too;
    # pieces and chunks of 8 steps let an engine lane stop in a piece whose
    # chunks were skipped, and graded pieces (8, 8, 16, 32, 64) stop it in
    # a short one.  The Sidon walk is always one piece.
    piece, first_piece = engine.PIECE, engine.FIRST_PIECE
    if setting != "workers-2":
        monkeypatch.setattr(census, "_CHUNK", 8)
        piece = 64
        first_piece = 8 if setting.startswith("graded") else piece
    check_stopped_lanes(monkeypatch, dense_walks[kind], kind, STOP_MARKS, piece=piece,
                        first_piece=first_piece, segment=97,
                        workers=2 if setting.endswith("workers-2") else 1, on_change=on_change)


def check_stopped_lanes(monkeypatch, dense, kind, marks, *, piece, first_piece, segment, workers,
                        on_change):
    """A first_change walk of ``kind`` against its ``dense`` walk, read at every u."""
    # the pool forks after the patches, so workers see them too
    monkeypatch.setattr(engine, "PIECE", piece)
    monkeypatch.setattr(engine, "FIRST_PIECE", first_piece)
    monkeypatch.setattr(engine, "MIN_SEGMENT", segment)
    x_end = int(dense.marks[-1])
    marks = list(marks)
    if on_change:
        # a change completing at marks[0] itself is not one after marks[0]
        steps = np.diff(dense.changes[:, marks[0] - 1 :], axis=1)
        marks[0] += int(np.flatnonzero(steps.any(axis=0))[0]) + 1
    fast = collect_walks(ModelSpec(kind), x_end, marks, range(140), 29, workers=workers,
                         first_change=True)
    dense_v, dense_c = dense.values, dense.changes
    stops = []
    for i in range(140):
        base = dense_c[i, marks[0] - 1]
        later = np.flatnonzero(dense_c[i, marks[0]:] > base)
        # the integer where the first change after marks[0] completes
        u = marks[0] + 1 + int(later[0]) if later.size else None
        stops.append(u)
        for j, mk in enumerate(marks):
            at = mk if u is None or mk < u else u
            assert fast.values[i, j] == dense_v[i, at - 1]
            assert fast.changes[i, j] == dense_c[i, at - 1]
            if u is not None and mk >= u:
                assert fast.changes[i, j] == base + 1
    # some lanes stop between marks, some never stop
    assert any(u is not None and u not in marks and u < marks[-1] for u in stops)
    assert any(u is None for u in stops)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("piece, seg", [(64, 777), (engine.PIECE, 512)])
def test_sparse_census_matches_dense_walk(monkeypatch, workers, piece, seg, dense_rmf_walk):
    # chunks of 8 steps, so that most chunks of these short walks start 8
    # or more from zero and are skipped; pieces of 64 end in a partial one
    monkeypatch.setattr(engine, "PIECE", piece)
    monkeypatch.setattr(engine, "MIN_SEGMENT", seg)
    scanned = []

    def spy(values, carry_sign):
        scanned.append(values.size)
        return count(values, carry_sign)

    count = census.count_changes_chunk
    monkeypatch.setattr(census, "count_changes_chunk", spy)
    rmf = ModelSpec("rmf")
    marks = [300, 2600, 3000]  # most pieces hold no mark
    cols = np.array(marks) - 1

    def walks(chunk, **kw):
        # the pool forks after the patch, so workers see the chunk length too
        monkeypatch.setattr(census, "_CHUNK", chunk)
        return collect_walks(rmf, 3000, marks, range(140), 29, workers=workers, **kw)

    sparse = walks(8)
    assert np.array_equal(sparse.values, dense_rmf_walk.values[:, cols])
    assert np.array_equal(sparse.changes, dense_rmf_walk.changes[:, cols])
    if workers == 1:
        # a dense walk scans all 140 * 3000 values
        assert sum(scanned) < 140 * 3000 * 3 // 4
    # a chunk that divides no piece walks every piece densely
    fast, dense = walks(8, first_change=True), walks(4099, first_change=True)
    assert np.array_equal(fast.values, dense.values)
    assert np.array_equal(fast.changes, dense.changes)
    value_only = walks(8, census=False)
    assert np.array_equal(value_only.values, sparse.values)


@pytest.mark.parametrize("source", [RmfWordSource, IidWordSource, HarmonicWordSource])
@pytest.mark.parametrize("seed", [-1, -3, 2**63, 2**64 - 1])
def test_run_walks_refuses_a_seed_outside_its_domain(source, seed):
    # block_key reduces a seed mod 2^64: -1 would walk the stream of 2^64 - 1
    with pytest.raises(ParameterError, match=r"master seed must lie in \[0, 2\^63\)"):
        run_walks(source(seed), 100, [100], range(64))
