import ast
import dataclasses
import inspect
import re
from pathlib import Path

import rmflab

ROOT = Path(__file__).resolve().parents[1]
# no reader yet: ROADMAP item 5 (the joint moment curve) gives harper_predictor its caller
UNREAD_EXEMPT = {"harper_predictor"}


def test_every_exported_name_resolves():
    assert len(rmflab.__all__) == len(set(rmflab.__all__))
    missing = [name for name in rmflab.__all__ if not hasattr(rmflab, name)]
    assert missing == []


def test_every_exported_name_has_a_reader_outside_tests():
    # a reader is any appearance in the package (bar __init__.py), scripts/ or
    # perfbench/ other than the top-level statement that defines the name
    files = [p for p in (ROOT / "src" / "rmflab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    texts = [p.read_text(encoding="utf-8") for p in files]
    unread = []
    for name in rmflab.__all__:
        word = re.escape(name)
        definition = re.compile(rf"^(?:(?:def|class)\s+{word}\b|{word}\s*[:=])", re.M)
        if not any(re.search(rf"\b{word}\b", definition.sub("", t)) for t in texts):
            unread.append(name)
    assert sorted(unread) == sorted(UNREAD_EXEMPT)


def test_one_module_splits_work_between_processes():
    src = ROOT / "src" / "rmflab"
    pools = [p.name for p in sorted(src.glob("*.py")) if "ProcessPoolExecutor" in p.read_text()]
    assert pools == ["models.py"]


def test_gate_builds_every_plan_in_one_place():
    text = (ROOT / "src" / "rmflab" / "acceptance.py").read_text(encoding="utf-8")
    assert text.count("ExperimentPlan(") == 1


def test_no_module_defines_run_manifest():
    # cli._emit builds the run manifest as the plain dict it writes
    for path in (ROOT / "src" / "rmflab").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        assert "RunManifest" not in classes, path.name


def test_cli_writes_results_in_one_place():
    tree = ast.parse((ROOT / "src" / "rmflab" / "cli.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert "export" not in [f.name for f in functions]
    emitting = [
        f.name
        for f in functions
        if f.name.startswith("cmd_")
        and any(isinstance(n, ast.Name) and n.id == "_emit" for n in ast.walk(f))
    ]
    assert emitting == []


def test_sources_have_one_scale_channel():
    # a source declares float_walk and returns each step's scale from
    # block_words; mu has one sieve, the segmented radical sieve
    for path in (ROOT / "src" / "rmflab").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = [
            f.name
            for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, ast.FunctionDef)
        ]
        assert not {"is_float_walk", "weights"} & set(methods), path.name
    assert not hasattr(rmflab.sieve, "mobius_sieve")


def test_samples_are_one_range():
    # a walk's samples are a step-1 range, cut into blocks by arithmetic
    assert not hasattr(rmflab.engine, "block_starts")


def test_model_spec_is_its_kind():
    # the bounded martingale's amplitudes are module constants, not fields
    assert [f.name for f in dataclasses.fields(rmflab.ModelSpec)] == ["kind"]


def test_sieve_has_one_output_shape():
    # f(n) (mu by default) and the big-prime split are two views of one
    # SegmentData; only the optional buffers may be left out
    params = inspect.signature(rmflab.sieve.segment_radical_data).parameters
    assert list(params) == ["lo", "hi", "primes", "prime_signs", "buffers"]
    assert not hasattr(rmflab.sieve, "_mobius")
    data = rmflab.sieve.segment_radical_data(90, 200, rmflab.sieve.primes_up_to(14))
    assert [f.name for f in dataclasses.fields(data) if getattr(data, f.name) is None] == [
        "buffers"]
    data = rmflab.sieve.segment_radical_data(90, 200, rmflab.sieve.primes_up_to(14), buffers={})
    assert [f.name for f in dataclasses.fields(data) if getattr(data, f.name) is None] == []


def test_one_census_tally_per_walk():
    # a walk's marks, carry and count live in census.Tally; walkers pass the tally and a row
    census = rmflab.census
    assert list(inspect.signature(census.walk_steps).parameters) == [
        "tally", "row", "steps", "start"]
    assert list(inspect.signature(census.count_to_marks).parameters) == [
        "tally", "row", "m", "start"]
    naming = [p.name for p in sorted((ROOT / "src" / "rmflab").glob("*.py"))
              if re.search(r"\b(carry_sign|change_acc)\b", p.read_text(encoding="utf-8"))]
    assert naming == ["census.py"]


def test_the_tally_stops_rows_and_holds_their_sums():
    # the first-change stop, the partial-sum width and the refusal of a
    # value-only first_change walk live in census.Tally, and no walker
    # repeats them (walk_steps' signature is pinned above)
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "src" / "rmflab").glob("*.py"))}
    refusal = "first_change needs a census run"
    for pattern in (r"\bINT32_CEILING\b", r"\bstop_at_first_change\b", refusal):
        assert [n for n, t in texts.items() if re.search(pattern, t)] == ["census.py"], pattern
    assert refusal in inspect.getsource(rmflab.census.Tally)
