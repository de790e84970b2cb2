"""``tools/bench.py`` records the git state of the tree it measures, and
measures a tree that git cannot describe, such as an exported copy."""

import importlib.util
import subprocess
from pathlib import Path


def load_bench():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench.py"
    spec = importlib.util.spec_from_file_location("tools_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(root, *args):
    subprocess.run(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com", *args],
        cwd=root, check=True, capture_output=True,
    )


def test_a_tree_without_git_records_no_commit(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    assert load_bench().git_state(tmp_path) == (None, None)
    assert "not a git checkout" in capsys.readouterr().err


def test_a_checkout_records_its_commit_and_whether_src_differs(tmp_path):
    bench = load_bench()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "first")
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=tmp_path, check=True, capture_output=True, text=True
    ).stdout.strip()
    assert bench.git_state(tmp_path) == (head, False)
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench.git_state(tmp_path) == (head, True)
    # a copy inside another checkout is not that checkout's commit
    (tmp_path / "copy" / "src").mkdir(parents=True)
    assert bench.git_state(tmp_path / "copy") == (None, None)
