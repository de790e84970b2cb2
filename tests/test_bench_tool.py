"""``tools/bench.py`` records the git state of the tree it measures, and
measures a tree that git cannot describe, such as an exported copy. A run
whose every inference failed is recorded, and the tool exits 1."""

import json
import subprocess
from pathlib import Path
from types import SimpleNamespace

from support import load_module

ROOT = Path(__file__).resolve().parents[1]


def load_bench():
    return load_module(ROOT / "tools" / "bench.py", "tools_bench")


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


def test_a_run_whose_every_inference_failed_is_recorded_and_exits_1(tmp_path, monkeypatch):
    bench = load_bench()

    def child(command, **kwargs):
        """perfbench/run.py, failing every inference at seed 1 and on branched."""
        workload = command[command.index("--workload") + 1]
        seed = int(command[command.index("--seed") + 1])
        if seed == 1 or workload == "branched":
            return subprocess.CompletedProcess(command, 1, "", "every inference failed\n")
        result = {"correct": True, "attempted": 4, "failed": 0,
                  "metrics": {"infer_p50_cu": {"value": float(seed), "unit": "cu"}}}
        context = {"cu_ms": 1.0, "infer_p50_ms": float(seed)}
        return subprocess.CompletedProcess(
            command, 0, f"context {json.dumps(context)}\n{json.dumps(result)}\n", "")

    # the module's own name, since platform.platform() runs a subprocess too
    monkeypatch.setattr(bench, "subprocess", SimpleNamespace(run=child))
    monkeypatch.setattr(bench, "phase_totals", lambda workload: {})
    monkeypatch.setattr(bench, "git_state", lambda root: (None, None))
    out = tmp_path / "bench.json"
    assert bench.main(["--seconds", "1", "--out", str(out),
                       "--against", str(ROOT / "BENCH_22.json")]) == 1
    workloads = json.loads(out.read_text())["workloads"]
    for name, workload in workloads.items():
        failed = [run["seed"] for run in workload["runs"] if not run["correct"]]
        assert failed == ([1, 2, 3] if name == "branched" else [1])
        assert all(not run["metrics"] for run in workload["runs"] if not run["correct"])
        assert not workload["per_layer"]["correct"] and not workload["per_layer"]["metrics"]
    assert workloads["lenet-layered"]["median"] == {"infer_p50_cu": 2.5}
    assert workloads["lenet-layered"]["median_context"] == {"cu_ms": 1.0, "infer_p50_ms": 2.5}
    assert workloads["branched"]["median"] == workloads["branched"]["median_context"] == {}
