"""Command-line interface.

Subcommands: encrypt (split + encrypt weights per plan), plan (emit a
partition plan), run (execute a plan over the simulated TEE), estimate
(cost-model arithmetic). Every subcommand takes --json for machine
output; the human text prints the same numbers.

Exit codes: 0 success; 2 bad flags, a path that cannot be read or written,
or a config or tensor that describes no valid model; 3 planning failure;
4 runtime or integrity failure, a malformed file (FormatError) included.

Input tensors are flat little-endian float32 files with a 12-byte header
of three u32 dims (channels, height, width).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
import sys
from pathlib import Path

import numpy as np

from .config import parse_config
from .errors import CdlpError, ConfigError, DimensionError, FormatError, PlanError
from .executor import compare_runs, prepare_partition_data, run_partitioned, run_reference
from .model import FLOAT, FLOAT_BYTES, ModelSpec, Tensor
from .planner import (
    SCHEME_LAYERED,
    SCHEME_SUBLAYER,
    SCHEMES,
    WORLD_SECURE,
    PartitionPlan,
    parse_manifest,
    plan_branched,
    plan_layered,
    plan_sublayer,
    render_manifest,
    validate_plan,
)
from .tee import CostConstants, SecureArena, estimate_overhead, ledger_overhead
from .weights import load_weights

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PLANNING = 3
EXIT_RUNTIME = 4

_TENSOR_HEADER = struct.Struct("<3I")


def write_tensor_file(path, tensor: Tensor) -> None:
    dims = tensor.dims if len(tensor.dims) == 3 else (tensor.size, 1, 1)
    Path(path).write_bytes(_TENSOR_HEADER.pack(*dims) + tensor.tobytes())


def read_tensor_file(path) -> Tensor:
    data = Path(path).read_bytes()
    if len(data) < _TENSOR_HEADER.size:
        raise FormatError(f"tensor file {path} has no dims header")
    dims = _TENSOR_HEADER.unpack_from(data)
    payload = data[_TENSOR_HEADER.size :]
    if len(payload) != FLOAT_BYTES * math.prod(dims):
        raise FormatError(
            f"tensor file {path}: dims {dims} need {FLOAT_BYTES * math.prod(dims)} payload bytes, "
            f"got {len(payload)}"
        )
    return Tensor(dims, np.frombuffer(payload, FLOAT))


def _parse_key(text: str) -> bytes:
    if len(text) != 32:
        raise ValueError(f"key must be 32 hex characters, got {len(text)}")
    if not re.fullmatch(r"[0-9a-fA-F]{32}", text):  # fromhex would skip whitespace
        raise ValueError("key is not valid hex")
    return bytes.fromhex(text)


def _emit(args, payload: dict, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human:
            print(line)


def _plan_for(model: ModelSpec, scheme: str, cap: int, subset) -> PartitionPlan:
    if scheme == SCHEME_SUBLAYER:
        return plan_sublayer(model, cap, subset_size=subset)
    if subset is not None:
        raise ValueError(f"--s applies to the sublayer scheme only, not {scheme}")
    if scheme == SCHEME_LAYERED:
        return plan_layered(model, cap)
    return plan_branched(model, cap)


def _partition_payload(p) -> dict:
    return {
        "id": p.id,
        "layer": p.layer_index,
        "start": p.start,
        "end": p.end,
        "world": p.world,
        "footprint_bytes": p.footprint_bytes,
        "layout": p.layout,
    }


def _plan_payload(plan: PartitionPlan) -> dict:
    return {
        "scheme": plan.scheme,
        "partitions": [_partition_payload(p) for p in plan.partitions],
        "sublayer": {
            str(i): {"subset_size": s.subset_size, "subset_count": s.subset_count}
            for i, s in sorted(plan.sublayer.items())
        },
        "spill_layers": sorted(plan.spill),
    }


def cmd_plan(args) -> int:
    data = Path(args.cfg).read_bytes()
    model = parse_config(data.decode())
    plan = _plan_for(model, args.scheme, args.cap, args.s)
    manifest = render_manifest(plan)
    if args.out:
        Path(args.out).write_text(manifest)
    payload = _plan_payload(plan)
    payload["config_bytes"] = len(data)
    human = [
        f"scheme: {plan.scheme}",
        f"partitions: {len(plan.partitions)}",
        f"config bytes: {payload['config_bytes']}",
    ]
    for i, params in sorted(plan.sublayer.items()):
        human.append(f"layer {i}: s={params.subset_size} p={params.subset_count}")
    human += manifest.splitlines()[1:]
    _emit(args, payload, human)
    return EXIT_OK


def _part_file_name(p) -> str:
    """The file a partition's container (``.cdlp``) or plaintext blob (``.blob``) lives in."""
    return f"part_{p.id}.cdlp" if p.world == WORLD_SECURE else f"part_{p.id}.blob"


def cmd_encrypt(args) -> int:
    key = _parse_key(args.key)
    model = parse_config(Path(args.cfg).read_text())
    store = load_weights(Path(args.weights).read_bytes(), model)
    plan = parse_manifest(Path(args.plan).read_text())
    problems = validate_plan(plan, model, None)
    if problems:
        raise PlanError("plan does not fit the model: " + "; ".join(problems))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = prepare_partition_data(store, plan, key)
    files = []
    for p in plan.partitions:
        name = _part_file_name(p)
        (out_dir / name).write_bytes(data[p.id])
        files.append(name)
    (out_dir / "plan.manifest").write_text(render_manifest(plan))
    _emit(
        args,
        {"out_dir": str(out_dir), "files": files, "partitions": len(plan.partitions)},
        [f"wrote {len(files)} partition files and plan.manifest to {out_dir}"],
    )
    return EXIT_OK


def cmd_run(args) -> int:
    key = _parse_key(args.key)
    if args.baseline is not None and not 0 < args.baseline < math.inf:
        raise ValueError(f"--baseline must be finite and positive, got {args.baseline!r}")
    model = parse_config(Path(args.cfg).read_text())
    plan = parse_manifest(Path(args.plan).read_text())
    parts_dir = Path(args.parts)
    data = {p.id: (parts_dir / _part_file_name(p)).read_bytes() for p in plan.partitions}
    x = read_tensor_file(args.input)
    # the plaintext weights file the containers were sealed from
    oracle = load_weights(Path(args.oracle).read_bytes(), model) if args.oracle else None

    constants = CostConstants(args.tcs, args.td)
    arena = SecureArena(args.cap)
    result = run_partitioned(model, data, plan, x, arena, key)
    overhead = ledger_overhead(result.ledger, constants)

    baseline = args.baseline
    equivalent = None
    if oracle is not None:
        reference = run_reference(model, oracle, x)
        equivalent = compare_runs(result.output, reference.output).bitwise_equal
        if baseline is None:
            baseline = reference.wall_seconds
    ratio = (baseline + overhead) / baseline if baseline else None

    ledger = result.ledger
    trace = [
        {
            **_partition_payload(t.partition),
            "arena_peak_bytes": t.arena_peak,
            "decrypted_bytes": t.decrypted_bytes,
            "switches": t.context_switches,
            "spill_chunks_read": t.spill_chunks_read,
            "spill_chunks_written": t.spill_chunks_written,
            # what the cost model, at this run's --tcs and --td, charges it
            "modeled_seconds": ledger_overhead(t, constants),
            "stage_seconds": t.stage_seconds,
            "decrypt_seconds": t.decrypt_seconds,
            "kernel_seconds": t.kernel_seconds,
            "spill_seconds": t.spill_seconds,
        }
        for t in result.partitions
    ]
    if args.trace:
        Path(args.trace).write_text("".join(json.dumps(entry) + "\n" for entry in trace))
    payload = {
        "scheme": plan.scheme,
        "partitions": len(plan.partitions),
        "context_switches": ledger.context_switches,
        "decrypted_bytes": ledger.decrypted_bytes,
        "overhead_seconds": overhead,
        "arena_peak_bytes": result.arena_peak,
        "baseline_seconds": baseline,
        "overhead_ratio": ratio,
        "equivalent": equivalent,
        "trace": trace,
    }
    human = [
        f"scheme: {plan.scheme}",
        f"partitions: {len(plan.partitions)}",
        f"context switches: {ledger.context_switches}",
        f"decrypted bytes: {ledger.decrypted_bytes}",
        f"estimated overhead seconds: {overhead!r}",
        f"arena peak bytes: {result.arena_peak}",
    ]
    if baseline is not None:
        human.append(f"baseline seconds: {baseline!r}")
        human.append(f"overhead ratio: {ratio!r}")
    if equivalent is not None:
        human.append(f"equivalent to reference: {str(equivalent).lower()}")
    for t in result.partitions:
        p = t.partition
        human.append(
            f"partition {p.id}: layer {p.layer_index} rows [{p.start}, {p.end}) {p.world}, "
            f"footprint {p.footprint_bytes}, arena peak {t.arena_peak}, "
            f"decrypted {t.decrypted_bytes}"
        )
    _emit(args, payload, human)
    if equivalent is False:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_estimate(args) -> int:
    constants = CostConstants(args.tcs, args.td)
    seconds = estimate_overhead(args.layers, args.bytes, constants)
    _emit(
        args,
        {
            "invocations": args.layers,
            "decrypted_bytes": args.bytes,
            "switch_seconds": constants.switch_seconds,
            "decrypt_byte_seconds": constants.decrypt_byte_seconds,
            "overhead_seconds": seconds,
        },
        [f"estimated overhead seconds: {seconds!r}"],
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlp",
        description="CNN inference with encrypted weight partitions under a "
        "simulated TEE memory budget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="produce a partition plan for a model")
    p.add_argument("--cfg", required=True, help="model configuration file")
    p.add_argument("--scheme", required=True, choices=SCHEMES)
    p.add_argument("--cap", required=True, type=int, help="secure memory budget in bytes")
    p.add_argument("--s", type=int, default=None, help="explicit subset size (sublayer only)")
    p.add_argument("--out", default=None, help="write the plan manifest here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("encrypt", help="split and encrypt weights along a plan")
    p.add_argument("--cfg", required=True)
    p.add_argument("--weights", required=True, help="binary weights file")
    p.add_argument("--plan", required=True, help="plan manifest from 'cdlp plan'")
    p.add_argument("--key", required=True, help="model key, 32 hex characters")
    p.add_argument("--out", required=True, help="output directory for partition files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_encrypt)

    p = sub.add_parser("run", help="execute a plan over the simulated TEE")
    p.add_argument("--cfg", required=True)
    p.add_argument("--parts", required=True, help="directory holding part_<id> files")
    p.add_argument("--plan", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--input", required=True, help="input tensor file")
    p.add_argument("--cap", required=True, type=int)
    p.add_argument("--oracle", metavar="WEIGHTS", default=None,
                   help="also run the plaintext reference on this weights file "
                   "and check bitwise equality")
    p.add_argument("--baseline", type=float, default=None,
                   help="baseline inference seconds for the overhead ratio")
    p.add_argument("--tcs", type=float, default=CostConstants().switch_seconds,
                   help="seconds per one-way context switch")
    p.add_argument("--td", type=float, default=CostConstants().decrypt_byte_seconds,
                   help="seconds per decrypted byte")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="write the per-partition trace here, one JSON object per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("estimate", help="cost-model arithmetic without running")
    p.add_argument("--layers", required=True, type=int, help="partition invocations")
    p.add_argument("--bytes", required=True, type=int, help="bytes decrypted")
    p.add_argument("--tcs", type=float, default=CostConstants().switch_seconds)
    p.add_argument("--td", type=float, default=CostConstants().decrypt_byte_seconds)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_estimate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # an input that cannot be read or written, or describes no valid model
    except (ConfigError, DimensionError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except PlanError as err:
        print(f"planning failed: {err}", file=sys.stderr)
        return EXIT_PLANNING
    except CdlpError as err:
        print(f"run failed: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
