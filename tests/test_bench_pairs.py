"""scripts/bench_pairs.py tells a changed tree from its commit, and a changed benchmark."""

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_git_dirty_on_a_one_commit_repo(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.org", *args],
                       cwd=repo, check=True, capture_output=True)

    (repo / "a.txt").write_text("one\n")
    git("init", "-q")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    assert bench_pairs.git_dirty(repo) is False
    (repo / "a.txt").write_text("two\n")
    assert bench_pairs.git_dirty(repo) is True
    git("checkout", "-q", "a.txt")
    (repo / "b.txt").write_text("new\n")
    assert bench_pairs.git_dirty(repo) is True
    assert bench_pairs.git_dirty(tmp_path) is None  # an exported tree has no .git


def test_benchmark_digest_covers_the_spec_and_perfbench(tmp_path):
    def tree(name):
        root = tmp_path / name
        (root / "perfbench" / "sub").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text('{"run_seconds": 20}\n')
        (root / "perfbench" / "run.py").write_text("print(1)\n")
        (root / "perfbench" / "sub" / "w.json").write_text("[]\n")
        (root / "src").mkdir()
        (root / "src" / "code.py").write_text("x = 1\n")
        return root

    parent, change = tree("parent"), tree("change")
    digest = bench_pairs.benchmark_digest
    assert digest(parent) == digest(change)
    (change / "src" / "code.py").write_text("x = 2\n")  # the program may change
    (change / "perfbench" / "__pycache__").mkdir()
    (change / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    assert digest(parent) == digest(change)
    (change / "BENCHMARK.json").write_text('{"run_seconds": 10}\n')
    assert digest(parent) != digest(change)
    (change / "BENCHMARK.json").write_text('{"run_seconds": 20}\n')
    (change / "perfbench" / "sub" / "w.json").write_text("[1]\n")
    assert digest(parent) != digest(change)
    (change / "perfbench" / "sub" / "w.json").write_text("[]\n")
    (change / "perfbench" / "extra.py").write_text("")
    assert digest(parent) != digest(change)
    (change / "perfbench" / "extra.py").unlink()
    assert digest(parent) == digest(change)
