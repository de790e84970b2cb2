"""Steadiness self-check: run the benchmark on several seeds and compare.

    python3 perfbench/selfcheck.py --runs 10 [--first-seed 21] [--workload branched]

For every workload it runs ``run.py`` once per seed for BENCHMARK.json's
run_seconds, one run at a time, and reports for each end-to-end metric the
distance between the first and third quartile of the runs' values as a share
of their median, beside the metric's bound in BENCHMARK.json. A spread at or
above the bound fails, and so does a simulated figure that is not identical in
every run: those depend on the plan alone. The spread of the raw milliseconds
is printed beside each cu spread, to show what the calibration removes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIMULATED = ("modeled_overhead_ms", "arena_peak_bytes")


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}\n{done.stderr}")
    context = next(json.loads(line[8:]) for line in lines if line.startswith("context "))
    return json.loads(lines[-1]), context


def check(workload: str, seeds: range, seconds: int, bounds: dict) -> bool:
    results = [_run(workload, seed, seconds) for seed in seeds]
    ok = all(result["correct"] for result, _ in results)
    print(f"{workload}: {len(results)} runs of {seconds} s, seeds {seeds.start}..{seeds.stop - 1}")
    for name, bound in bounds.items():
        values = [result["metrics"][name]["value"] for result, _ in results]
        median = statistics.median(values)
        if name in SIMULATED:
            steady = len(set(values)) == 1
            verdict = "identical" if steady else "DIFFERS"
            ok &= steady
            print(f"  {name:22s} median {median:12.6g}  {verdict}")
            continue
        spread = _spread(values)
        raw_name = name.replace("_cu", "_ms")
        raw = ""
        if raw_name != name:
            raw = f"  raw ms spread {_spread([c[raw_name] for _, c in results]):6.1%}"
        if spread >= bound:
            verdict, ok = "FAIL", False
        else:
            verdict = "steady" if spread < bound / 3 else "wide"
        print(
            f"  {name:22s} median {median:12.6g}  spread {spread:6.1%}"
            f"  bound {bound:.0%}  {verdict}{raw}"
        )
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        ok &= check(workload, seeds, spec["run_seconds"], bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
