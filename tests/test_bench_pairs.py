"""scripts/bench_pairs.py tells a changed tree from its commit."""

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
