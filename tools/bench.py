"""Write a BENCH_*.json file: the benchmark's figures for the checked-out tree.

    python3 tools/bench.py --seconds 8 --out BENCH_15.json --against BENCH_14.json

For every workload in BENCHMARK.json it runs ``perfbench/run.py`` untraced
once per seed of SEEDS, each run in its own process, and records each run's
end-to-end metrics with their raw-millisecond context, and the median of
each over the seeds. One traced run per workload, at the first seed, gives
the per-layer metrics. The file also names the commit and whether the
working tree differed from it.

The exit code is 0 when every run was correct, 1 when an inference in some
run was not bitwise equal to the reference pass (the file is still written),
and 2 when the benchmark could not run.

With ``--against`` an earlier BENCH file, it then prints, per workload, each
end-to-end median's relative change from that file, and the ratio of the two
files' median ``cu_ms`` probe times: cu figures are times over the probe, so
a probe that ran slower in one file moves them too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PHASES = (
    "The per-partition phase breakdown (stage, verify+decrypt, kernel, spill) "
    "is not reported: the run's per-partition trace carries no phase wall "
    "times yet. per_layer holds the traced run's whole-run span figures."
)


class BenchError(Exception):
    """A benchmark run could not produce figures."""


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    """One run of perfbench/run.py: its result object and, untraced, its context."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(command[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    context = next(
        (json.loads(line[len("context "):]) for line in lines if line.startswith("context ")),
        None,
    )
    return result, context


def _values(result: dict) -> dict:
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def bench_workload(workload: str, seconds: float) -> dict:
    runs = []
    for seed in SEEDS:
        result, context = _run(workload, seed, seconds, trace=False)
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": _values(result),
            "context": context,
        })
        print(f"{workload} seed {seed}: infer_p50_cu "
              f"{runs[-1]['metrics']['infer_p50_cu']:.4g}", file=sys.stderr)
    traced, _ = _run(workload, SEEDS[0], seconds, trace=True)
    first = runs[0]
    return {
        "units": {name: metric["unit"]
                  for name, metric in (result["metrics"] | traced["metrics"]).items()},
        "runs": runs,
        "median": {
            name: statistics.median(run["metrics"][name] for run in runs)
            for name in first["metrics"]
        },
        "median_context": {
            name: statistics.median(run["context"][name] for run in runs)
            for name in first["context"]
            if name.endswith("_ms")
        },
        "per_layer": {
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "metrics": _values(traced),
        },
    }


def compare(report: dict, baseline: dict) -> list[str]:
    """Lines comparing ``report``'s end-to-end medians with ``baseline``'s."""
    lines = []
    for name, workload in report["workloads"].items():
        old = baseline["workloads"].get(name)
        if old is None:
            lines.append(f"{name}: not in the baseline")
            continue
        probe, old_probe = workload["median_context"]["cu_ms"], old["median_context"]["cu_ms"]
        lines.append(f"{name}: cu_ms probe {old_probe:.4g} -> {probe:.4g} ms, "
                     f"ratio {probe / old_probe:.3f}")
        for metric, value in workload["median"].items():
            before = old["median"].get(metric)
            if before:
                lines.append(f"  {metric:<20} {before:.6g} -> {value:.6g}  {value / before - 1:+.1%}")
            else:
                lines.append(f"  {metric:<20} {before} -> {value:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="run length of each perfbench/run.py call")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--against", type=Path,
                        help="an earlier BENCH file to compare the medians with")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    baseline = json.loads(args.against.read_text()) if args.against else None
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        workloads = {w["name"]: bench_workload(w["name"], args.seconds)
                     for w in declared["workloads"]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report = {
        "commit": _git("rev-parse", "HEAD"),
        "tree_differs_from_commit": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0|1",
        "seeds": list(SEEDS),
        "seconds": args.seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "phases": PHASES,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if baseline is not None:
        print("\n".join(compare(report, baseline)))
    runs = [run for w in workloads.values() for run in [*w["runs"], w["per_layer"]]]
    correct = all(run["correct"] for run in runs)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
