"""Check that this checkout's library runs the benchmark's workloads exactly as
an earlier commit's does.

    python3 tools/same_runs.py --against HEAD~1

The commit's ``src`` is exported with ``git archive`` into a temporary
directory. Each tree then runs in its own child process, which puts that
tree's ``src`` first on ``sys.path``, imports this checkout's
``perfbench/workloads.py``, and sets every workload up at seed 1, as the first
instance of ``perfbench/run.py --seed 1`` is set up. For each of the
``POOL_SIZE`` inferences, the child records the output's dims and SHA-256
(so equal bytes under other dims differ), the ledger, the arena peak, every
partition's counters (id, layer, rows, world, planned footprint, arena peak,
switches, decrypted bytes, spill chunks read and written) and the shared
buffer's write log as (offset, length, tag) records, and it records the
plan's manifest once. It then runs the first input once per
secure partition with the last byte of that partition's container flipped, and
records the exception the run raised and the arena memory still in use after
it, so a run that fails must fail and clean up alike. The leak audit is
compared too: each inference's ``find_plaintext_leak`` result on its shared
buffer and secrets, and, for each secret of the first input, the audit of
that secret alone once 16 bytes from its middle are appended to a fresh
run's buffer, which must find a slice. For each such secret it also records
a warm planted audit: a fresh run's buffer is audited with the input's whole
secret set, the same 16 bytes are appended, and the buffer is audited with
that set again, so the run's appends are answered from the auditor's memo and
the slice must still be found. Plans are compared beyond the workload's
own: at each of ``PLAN_CAPS`` caps, eight steps per octave from 2^8 to 2^23
bytes, the child records the manifest that ``plan_layered``,
``plan_sublayer`` and ``plan_branched`` make of the workload's model, or the
refusal each raises as ``ExceptionClass: message``.

It prints ``same``, or the first difference (the commit's value first), per
workload. The exit code is 0 when every workload is the same, 1 when some
workload differs, and 2 when a tree cannot run. Wall times are not compared.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLAN_CAPS = 121  # round(2 ** (8 + k / 8)) bytes for k below this


class TreeError(Exception):
    """A tree could not be exported or could not run the workloads."""


def child_dump() -> dict:
    """Every workload's manifest, inference records and plans over the caps,
    from the ``cdlp`` first on ``sys.path``; runs in the child process."""
    import hashlib

    import numpy as np
    from workloads import CAP, KEY, POOL_SIZE, WORKLOADS, set_up

    from cdlp import (SecureArena, TaintTag, find_plaintext_leak, plan_branched, plan_layered,
                      plan_sublayer, render_manifest, run_partitioned)

    def audit(shared, secrets) -> str | None:
        leak = find_plaintext_leak(shared, secrets)
        return None if leak is None else leak.hex()

    dump = {}
    for name, workload in WORKLOADS.items():
        instance = set_up(workload, np.random.default_rng([1, 0]))
        inferences = []
        for index in range(POOL_SIZE):
            result = instance.infer(index)
            ledger = result.ledger
            inferences.append({
                "output_dims": list(result.output.dims),
                "output_sha256": hashlib.sha256(result.output.tobytes()).hexdigest(),
                "ledger": [ledger.context_switches, ledger.decrypted_bytes],
                "arena_peak": result.arena_peak,
                "partitions": [
                    {
                        "id": t.partition.id,
                        "layer": t.partition.layer_index,
                        "rows": [t.partition.start, t.partition.end],
                        "world": t.partition.world,
                        "footprint": t.partition.footprint_bytes,
                        "arena_peak": t.arena_peak,
                        "switches": t.context_switches,
                        "decrypted_bytes": t.decrypted_bytes,
                        "spill_chunks_read": t.spill_chunks_read,
                        "spill_chunks_written": t.spill_chunks_written,
                    }
                    for t in result.partitions
                ],
                "writes": [[w.offset, w.length, w.tag.name] for w in result.shared.writes],
                "audit": audit(result.shared, instance.secrets[index]),
            })
        planted, warm_planted = [], []
        secrets = instance.secrets[0]
        for secret in secrets:
            start = max(len(secret) // 2 - 8, 0)
            piece = secret[start : start + 16]
            shared = instance.infer(0).shared
            shared.append(piece, TaintTag.PUBLIC)
            planted.append(audit(shared, [secret]))
            # the run's appends audited with every secret first, so the
            # audit after the plant finds them in the memo
            shared = instance.infer(0).shared
            audit(shared, secrets)
            shared.append(piece, TaintTag.PUBLIC)
            warm_planted.append(audit(shared, secrets))
        tampered = []
        for p in instance.plan.secure_partitions():
            data = dict(instance.partition_data)
            data[p.id] = data[p.id][:-1] + bytes([data[p.id][-1] ^ 1])  # the GCM tag's last byte
            arena = SecureArena(CAP)
            try:
                run_partitioned(instance.model, data, instance.plan, instance.inputs[0], arena, KEY)
                raised = None
            except Exception as err:
                raised = type(err).__name__
            tampered.append(
                {"partition": p.id, "raised": raised, "arena_usage": arena.current_usage}
            )
        plans = {}
        for step in range(PLAN_CAPS):
            cap = round(2 ** (8 + step / 8))
            for planner in (plan_layered, plan_sublayer, plan_branched):
                try:
                    entry = render_manifest(planner(instance.model, cap)).splitlines()
                except Exception as err:
                    entry = f"{type(err).__name__}: {err}"
                plans[f"{planner.__name__} {cap}"] = entry
        dump[name] = {"manifest": render_manifest(instance.plan).splitlines(),
                      "inferences": inferences, "tampered": tampered, "planted": planted,
                      "warm_planted": warm_planted, "plans": plans}
    return dump


_CHILD = (
    "import json, sys\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import same_runs\n"
    "json.dump(same_runs.child_dump(), sys.stdout)\n"
)


def dump_tree(src: Path) -> dict:
    """Run ``child_dump`` in a new process on the library in ``src``."""
    command = [sys.executable, "-c", _CHILD, str(src), str(ROOT / "perfbench"),
               str(Path(__file__).resolve().parent)]
    run = subprocess.run(command, capture_output=True, text=True)
    if run.returncode:
        raise TreeError(f"{src} could not run the workloads:\n{run.stderr.strip()}")
    return json.loads(run.stdout)


def export_src(rev: str, into: Path) -> Path:
    """Write commit ``rev``'s ``src`` under ``into`` and return its path."""
    try:
        archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(into)], input=archive, capture_output=True,
                       check=True)
    except subprocess.CalledProcessError as err:
        raise TreeError(f"cannot export src at {rev}: {err.stderr.decode().strip()}") from None
    return into / "src"


def first_difference(a, b, where: str = "") -> str | None:
    """Where two dumps first differ, with both values, or None if they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in [*a, *(k for k in b if k not in a)]:
            found = first_difference(a.get(key), b.get(key), f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{where}[{i}]")
            if found:
                return found
        if len(a) != len(b):
            return f"{where}: {len(a)} entries vs {len(b)}"
        return None
    return None if a == b else f"{where}: {a!r} vs {b!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the commit whose src this checkout's is compared with")
    args = parser.parse_args(argv)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            theirs = dump_tree(export_src(args.against, Path(tmp)))
        ours = dump_tree(ROOT / "src")
    except TreeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    differs = False
    for name in ours:
        found = first_difference(theirs.get(name), ours[name], name)
        differs = differs or found is not None
        print(f"{name}: {'same' if found is None else 'different at ' + found}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
