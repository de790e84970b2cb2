"""Write a BENCH_*.json file: the benchmark's figures for the checked-out tree.

    python3 tools/bench.py --seconds 8 --out BENCH_22.json --against BENCH_19.json

For every workload in BENCHMARK.json it runs ``perfbench/run.py`` untraced
once per seed of SEEDS, each run in its own process, and records each run's
end-to-end metrics with their raw-millisecond context, and the median of
each over the seeds. One traced run per workload, at the first seed, gives
the per-layer metrics. The phase totals come from the run's own trace: in
this process, the workload is set up as ``perfbench/run.py`` sets up its
first instance at the first seed, and each of PHASE_INFERENCES inferences
sums its partitions' stage, verify+decrypt, kernel and spill wall times;
the file records the median of each sum, of the time outside the phases,
and of the whole inference, then the same split by world: the normal-world
partitions' kernel time, and the secure partitions' stage, verify+decrypt
and kernel times with their count, beside the modeled overhead of the run's
ledger. The file also names the commit and whether the working tree
differed from it, both null in a tree that is not a git checkout.

The exit code is 0 when every run was correct, 1 when an inference in some
run was not bitwise equal to the reference pass (the file is still written),
and 2 when the benchmark could not run. A run whose every inference failed
is recorded as incorrect with no metrics, and the medians are taken over
the runs that have them.

With ``--against`` an earlier BENCH file, it then prints, per workload, each
end-to-end median's relative change from that file, and the ratio of the two
files' median ``cu_ms`` probe times: cu figures are times over the probe, so
a probe that ran slower in one file moves them too. The raw-millisecond
medians of the inference, the reference pass and the audit follow, since a
cu figure and its raw time can move in opposite directions, and then the
phase totals where both files have them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
PHASES = ("stage", "decrypt", "kernel", "spill")  # PartitionTrace's <phase>_seconds
SECURE_PHASES = ("stage", "decrypt", "kernel")
PHASE_INFERENCES = 200
RAW_MS = ("infer_p50_ms", "reference_p50_ms", "audit_p50_ms")


class BenchError(Exception):
    """A benchmark run could not produce figures."""


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout.strip()


def git_state(root: Path) -> tuple[str | None, bool | None]:
    """The commit checked out at ``root``, and whether ``src`` or ``perfbench``
    differ from it. Where git cannot describe ``root`` itself, as in an
    exported copy without ``.git``, both are None and one line goes to stderr."""
    try:
        top, commit = _git(root, "rev-parse", "--show-toplevel", "HEAD").splitlines()
        if Path(top).resolve() == root.resolve():
            return commit, bool(_git(root, "status", "--porcelain", "--", "src", "perfbench"))
    except (OSError, subprocess.CalledProcessError):
        pass
    print(f"{root} is not a git checkout: the BENCH file names no commit", file=sys.stderr)
    return None, None


def _run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict | None]:
    """One run of perfbench/run.py: its result object and, untraced, its context.
    A run whose every inference failed prints neither, and gives a result with
    no metrics."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode == 1 and proc.stderr.splitlines()[-1:] == ["every inference failed"]:
        return {"correct": False, "metrics": {}}, None
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


def phase_totals(workload: str) -> dict:
    """Median per-inference phase totals of the workload, in ms, from its trace:
    over all partitions, then split by world, the normal world's kernel time
    and the secure partitions' stage, verify+decrypt and kernel times, with
    the secure partition count."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import numpy as np
    from cdlp import ledger_overhead
    from cdlp.planner import WORLD_SECURE
    from workloads import POOL_SIZE, WORKLOADS, set_up

    instance = set_up(WORKLOADS[workload], np.random.default_rng([SEEDS[0], 0]))
    keys = (*PHASES, "outside", "infer", "normal_kernel", *(f"secure_{p}" for p in SECURE_PHASES))
    sums: dict[str, list[float]] = {key: [] for key in keys}
    for index in range(PHASE_INFERENCES):
        started = time.perf_counter()
        result = instance.infer(index % POOL_SIZE)
        wall = time.perf_counter() - started
        phased = 0.0
        for phase in PHASES:
            seconds = sum(getattr(t, f"{phase}_seconds") for t in result.partitions)
            sums[phase].append(seconds)
            phased += seconds
        sums["outside"].append(wall - phased)
        sums["infer"].append(wall)
        secure = [t for t in result.partitions if t.partition.world == WORLD_SECURE]
        sums["normal_kernel"].append(
            sum(t.kernel_seconds for t in result.partitions if t.partition.world != WORLD_SECURE)
        )
        for phase in SECURE_PHASES:
            sums[f"secure_{phase}"].append(sum(getattr(t, f"{phase}_seconds") for t in secure))
    ledger = result.ledger
    return {
        "seed": SEEDS[0],
        "inferences": PHASE_INFERENCES,
        "secure_partitions": len(secure),
        **{f"{key}_ms": statistics.median(values) * 1e3 for key, values in sums.items()},
        "switches": ledger.context_switches,
        "decrypted_bytes": ledger.decrypted_bytes,
        "modeled_overhead_ms": ledger_overhead(ledger) * 1e3,
    }


def bench_workload(workload: str, seconds: float) -> dict:
    runs, results = [], []
    for seed in SEEDS:
        result, context = _run(workload, seed, seconds, trace=False)
        results.append(result)
        runs.append({
            "seed": seed,
            "correct": result["correct"],
            "attempted": result.get("attempted"),
            "failed": result.get("failed"),
            "metrics": _values(result),
            "context": context,
        })
        p50 = runs[-1]["metrics"].get("infer_p50_cu")
        print(f"{workload} seed {seed}: "
              + ("every inference failed" if p50 is None else f"infer_p50_cu {p50:.4g}"),
              file=sys.stderr)
    traced, _ = _run(workload, SEEDS[0], seconds, trace=True)
    phases = phase_totals(workload)
    print(f"{workload} phases, ms per inference: " + ", ".join(
        f"{key[:-3]} {value:.3f}" for key, value in phases.items() if key.endswith("_ms")
    ), file=sys.stderr)
    measured = [run for run in runs if run["metrics"]]
    return {
        "units": {name: metric["unit"]
                  for result in (*results, traced) for name, metric in result["metrics"].items()},
        "runs": runs,
        "median": {
            name: statistics.median(run["metrics"][name] for run in measured)
            for name in (measured[0]["metrics"] if measured else ())
        },
        "median_context": {
            name: statistics.median(run["context"][name] for run in measured)
            for name in (measured[0]["context"] if measured else ())
            if name.endswith("_ms")
        },
        "per_layer": {
            "seed": SEEDS[0],
            "correct": traced["correct"],
            "metrics": _values(traced),
        },
        "phases": phases,
    }


def compare(report: dict, baseline: dict) -> list[str]:
    """Lines comparing ``report``'s end-to-end medians with ``baseline``'s;
    a figure that either file lacks is skipped."""
    lines = []
    for name, workload in report["workloads"].items():
        old = baseline["workloads"].get(name)
        if old is None:
            lines.append(f"{name}: not in the baseline")
            continue
        context = workload["median_context"]
        probe, old_probe = context.get("cu_ms"), old["median_context"].get("cu_ms")
        if probe and old_probe:
            lines.append(f"{name}: cu_ms probe {old_probe:.4g} -> {probe:.4g} ms, "
                         f"ratio {probe / old_probe:.3f}")
        else:
            lines.append(f"{name}: no cu_ms probe to compare")
        for metric, value in workload["median"].items():
            before = old["median"].get(metric)
            if before:
                lines.append(f"  {metric:<20} {before:.6g} -> {value:.6g}  {value / before - 1:+.1%}")
            else:
                lines.append(f"  {metric:<20} {before} -> {value:.6g}")
        for name in RAW_MS:
            before = old["median_context"].get(name)
            if before and name in context:
                lines.append(f"  {name:<20} {before:.4g} -> {context[name]:.4g} ms  "
                             f"{context[name] / before - 1:+.1%}")
        for name, value in workload["phases"].items():
            before = old.get("phases", {}).get(name)
            if name.endswith("_ms") and before:
                lines.append(f"  phases.{name:<20} {before:.4g} -> {value:.4g} ms  "
                             f"{value / before - 1:+.1%}")
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
    commit, differs = git_state(ROOT)
    try:
        workloads = {w["name"]: bench_workload(w["name"], args.seconds)
                     for w in declared["workloads"]}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report = {
        "commit": commit,
        "tree_differs_from_commit": differs,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0|1",
        "seeds": list(SEEDS),
        "seconds": args.seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
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
