"""cdlp benchmark: one workload, one process, one thread, one closed-loop client.

    python3 perfbench/run.py --workload lenet-layered --seed 1 --seconds 30 --trace 0

Each iteration runs one ``run_partitioned`` inference and one
``reference_forward`` on the same input, with a calibration probe before,
between and after them, and checks both outputs bitwise against the reference
output precomputed at set-up. Part of the loop's time goes to auditing the
run's shared buffer with ``find_plaintext_leak``, which must find nothing but
chance matches across a container header. The next inference starts only
after the previous one returned.

Host times are reported in calibration units (cu, see calibrate.py), with the
raw milliseconds printed beside them as context. Simulated figures come from
the run's ledger and arena. Set-up is repeated SETUP_REPEATS times, each
from its own seeded generator and spread evenly over the run, and ``setup_s``
is the median wall time of one set-up. Each set-up's instance serves the
inferences that follow it, so the figures average over as many memory layouts
of the weights and buffers.

With ``--trace 1`` the run sets up SETUP_REPEATS times, measures untraced, then
installs the wrappers of spans.py, measures again and reports per-layer figures
per inference and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every inference was correct, 1 when one failed, and 2 when the benchmark could
not run: no library sources, or a figure that cannot vary did.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 30
NEAR_PROBES = 10  # an audit's cu uses this many probes on each side of it
MIN_INFERENCES = 100
AUDIT_SHARE = 0.4  # at most this share of the loop's time goes to audits
UNTRACED_SHARE = 0.4  # of a traced run, measured untraced first


class BenchmarkError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def _import_library():
    src = ROOT / "src"
    if not (src / "cdlp" / "__init__.py").is_file():
        raise BenchmarkError(f"no cdlp sources under {src}")
    sys.path.insert(0, str(src))
    import cdlp

    if Path(cdlp.__file__).resolve().parent != (src / "cdlp").resolve():
        raise BenchmarkError(f"imported cdlp from {cdlp.__file__}, not from {src}")


@dataclass
class Samples:
    """Per operation, in loop order: raw seconds and cu (see ``measure``)."""

    probe: list[float] = field(default_factory=list)
    infer: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    audit: list[float] = field(default_factory=list)
    infer_cu: list[float] = field(default_factory=list)
    reference_cu: list[float] = field(default_factory=list)
    audit_probe: list[int] = field(default_factory=list)  # index of the probe after each audit
    loop_seconds: float = 0.0
    audit_bytes: int = 0
    flagged: int = 0  # audits whose 8-byte windows matched a secret
    shared_bytes: int = 0
    attempted: int = 0
    failed: int = 0


def _leak_outside_headers(shared, secrets: list[bytes]) -> bytes | None:
    """The first 8-byte window of the shared write log that matches a secret
    and does not overlap a container header, or None.

    ``find_plaintext_leak`` reports any 8-byte match. A header is public
    metadata, yet its bytes can match a secret by chance: the length field of
    a 4 KiB spill chunk, ``00 10 00 00 00 00 00 00``, ends in zero bytes, as
    do runs of relu activations, and the ciphertext after it supplies the
    rest. Only such matches are excused; any other window is a leak.
    """
    from cdlp import TaintTag
    from cdlp.container import HEADER_BYTES, MAGIC

    window = 8
    pieces = {s[i : i + window] for s in secrets for i in range(len(s) - window + 1)}
    for record in shared.writes:
        data = record.data
        container = record.tag is TaintTag.CIPHERTEXT and data.startswith(MAGIC)
        for i in range(HEADER_BYTES if container else 0, len(data) - window + 1):
            if data[i : i + window] in pieces:
                return data[i : i + window]
    return None


def measure(instance, probe, seconds: float, samples: Samples, min_attempted: int,
            tracer=None) -> None:
    """Closed loop over the input pool, appending to ``samples``, for
    ``seconds`` and until ``samples.attempted`` reaches ``min_attempted``.

    A probe runs right before and right after every timed operation. An
    inference's or a reference pass's time in cu is its time over the mean of
    those two probes: the machine's speed shifts within a run, and the probes
    next to an operation see the speed it ran at. An audit lasts hundreds of
    probes, so ``end_to_end`` divides it by the median of the probes around it.
    """
    from cdlp import compare_runs, find_plaintext_leak, reference_forward
    from workloads import POOL_SIZE, Simulated

    span = tracer.span if tracer is not None else lambda name: nullcontext()

    def probed(name, operation, raw, cu, before):
        started = time.perf_counter()
        with span(name):
            value = operation()
        elapsed = time.perf_counter() - started
        after = probe.run()
        samples.probe.append(after)
        raw.append(elapsed)
        if cu is not None:
            cu.append(2 * elapsed / (before + after))
        return value, after

    audit_seconds = sum(samples.audit)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or samples.attempted < min_attempted:
        index = samples.attempted % POOL_SIZE
        x = instance.inputs[index]
        samples.attempted += 1
        before = probe.run()
        samples.probe.append(before)
        try:
            result, before = probed(
                "executor", lambda: instance.infer(index),
                samples.infer, samples.infer_cu, before)
            reference, before = probed(
                "nn.reference_forward",
                lambda: reference_forward(instance.model, instance.store, x),
                samples.reference, samples.reference_cu, before)
        except Exception:
            samples.failed += 1
            traceback.print_exc()
            continue
        samples.shared_bytes += len(result.shared)
        expected = instance.references[index]
        correct = (
            compare_runs(result.output, expected).bitwise_equal
            and compare_runs(reference, expected).bitwise_equal
        )
        simulated = Simulated.of(result)
        if simulated != instance.simulated:
            raise BenchmarkError(
                f"simulated figures changed from {instance.simulated} to {simulated}"
            )
        elapsed = samples.loop_seconds + time.perf_counter() - started
        if audit_seconds <= AUDIT_SHARE * elapsed:
            secrets = instance.secrets[index]
            leak, _ = probed(
                "tee.find_plaintext_leak", lambda: find_plaintext_leak(result.shared, secrets),
                samples.audit, None, before)
            samples.audit_probe.append(len(samples.probe) - 1)
            audit_seconds += samples.audit[-1]
            samples.audit_bytes += len(result.shared) + sum(len(s) for s in secrets)
            if leak is not None:
                samples.flagged += 1
                leak = _leak_outside_headers(result.shared, secrets)
                if leak is not None:
                    print(f"plaintext leak in shared memory: {leak.hex()}", file=sys.stderr)
                    correct = False
        if not correct:
            samples.failed += 1
    samples.loop_seconds += time.perf_counter() - started


class SetUps:
    """Repeated set-ups of one workload, each from its own seeded generator.

    Every repeat does the same work on other weights and inputs, so the
    repeats also check that the simulated figures do not depend on the seed.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.walls: list[float] = []
        self.plans: list[float] = []
        self.prepares: list[float] = []
        self.simulated = None

    def next(self):
        import numpy as np
        from workloads import set_up

        gc.collect()
        started = time.perf_counter()
        instance = set_up(self.workload, np.random.default_rng([self.seed, len(self.walls)]))
        self.walls.append(time.perf_counter() - started)
        self.plans.append(instance.plan_s)
        self.prepares.append(instance.prepare_s)
        if self.simulated not in (None, instance.simulated):
            raise BenchmarkError(
                f"simulated figures differ between seeds: "
                f"{self.simulated} vs {instance.simulated}"
            )
        self.simulated = instance.simulated
        return instance


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _audit_cu(samples: Samples) -> list[float]:
    """Each audit's time over the median of the 2 * NEAR_PROBES + 1 probes
    nearest to its end: one probe is too short to stand for the machine's
    speed over a whole audit."""
    probes = samples.probe
    return [
        seconds / statistics.median(probes[max(0, at - NEAR_PROBES) : at + NEAR_PROBES + 1])
        for seconds, at in zip(samples.audit, samples.audit_probe)
    ]


def end_to_end(samples: Samples, set_ups: SetUps) -> tuple[dict, dict]:
    """(metrics, raw context) of an untraced run."""
    raw = {
        "infer_p50": statistics.median(samples.infer),
        "infer_p90": _p90(samples.infer),
        "reference_p50": statistics.median(samples.reference),
        "audit_p50": statistics.median(samples.audit),
    }
    metrics = {
        "infer_p50_cu": (statistics.median(samples.infer_cu), "cu"),
        "infer_p90_cu": (_p90(samples.infer_cu), "cu"),
        "reference_p50_cu": (statistics.median(samples.reference_cu), "cu"),
        "audit_p50_cu": (statistics.median(_audit_cu(samples)), "cu"),
        "modeled_overhead_ms": (set_ups.simulated.modeled_overhead_ms, "sim_ms"),
        "arena_peak_bytes": (set_ups.simulated.arena_peak_bytes, "bytes"),
        "setup_s": (statistics.median(set_ups.walls), "s"),
    }
    context = {
        "cu_ms": statistics.median(samples.probe) * 1e3,
        **{f"{key}_ms": value * 1e3 for key, value in raw.items()},
        "inferences": len(samples.infer),
        "audits": len(samples.audit),
        "audits_flagged": samples.flagged,
        "probes": len(samples.probe),
        "failed_ratio": samples.failed / samples.attempted,
    }
    return metrics, context


def per_layer(untraced: Samples, traced: Samples, tracer, instance, set_ups: SetUps) -> dict:
    """Per-inference figures of the traced phase, and the tracing overhead.

    Kernel spans count calls from both the partitioned run and the reference
    pass; a share is a fraction of one traced iteration, which is one
    ``run_partitioned`` plus one ``reference_forward``.
    """
    from cdlp import CostConstants

    n = traced.attempted
    iteration_ms = (sum(traced.infer) + sum(traced.reference)) * 1e3 / n
    metrics = {}

    def timed(key, seconds):
        ms = seconds * 1e3 / n
        metrics[f"{key}ms"] = (ms, "ms")
        metrics[f"{key}share"] = (ms / iteration_ms, "fraction")

    for name in ("nn.conv", "nn.connected", "nn.accumulate", "nn.pool_softmax",
                 "nn.reference_forward", "container.decrypt", "container.encrypt",
                 "weights.partition_weights", "executor.spill_activations",
                 "planner.validate_plan"):
        timed(f"{name}.", tracer.seconds[name])
    timed("tee.ledger_decrypt.self_", tracer.self_seconds["tee.ledger_decrypt"])
    timed("executor.self_", tracer.self_seconds["executor"])
    for name in ("nn.conv", "nn.connected", "container.decrypt", "container.encrypt",
                 "executor.stream_spilled"):
        metrics[f"{name}.calls"] = (tracer.calls[name] / n, "count")
    metrics["nn.accumulate.values"] = (tracer.work["nn.accumulate"] / n, "count")
    for name in ("container.decrypt", "container.encrypt", "weights.partition_weights"):
        metrics[f"{name}.bytes"] = (tracer.work[name] / n, "bytes")

    simulated, constants = set_ups.simulated, CostConstants()
    metrics["tee.invocations"] = (tracer.calls["tee.invoke"] / n, "count")
    metrics["tee.switches"] = (simulated.switches, "count")
    metrics["tee.decrypted_bytes"] = (simulated.decrypted_bytes, "bytes")
    metrics["tee.modeled_switch_ms"] = (
        simulated.switches * constants.switch_seconds * 1e3, "sim_ms")
    metrics["tee.modeled_decrypt_ms"] = (
        simulated.decrypted_bytes * constants.decrypt_byte_seconds * 1e3, "sim_ms")
    metrics["tee.shared_bytes_written"] = (traced.shared_bytes / len(traced.infer), "bytes")
    audits = len(traced.audit)
    metrics["tee.find_plaintext_leak.ms"] = (
        tracer.seconds["tee.find_plaintext_leak"] * 1e3 / audits, "ms")
    metrics["tee.find_plaintext_leak.bytes_scanned"] = (traced.audit_bytes / audits, "bytes")
    metrics["tee.find_plaintext_leak.flagged"] = (traced.flagged / audits, "fraction")

    metrics["executor.prepare_partition_data.ms"] = (
        statistics.median(set_ups.prepares) * 1e3, "ms")
    metrics["planner.plan.ms"] = (statistics.median(set_ups.plans) * 1e3, "ms")
    max_footprint = max(p.footprint_bytes for p in instance.plan.secure_partitions())
    metrics["planner.partitions"] = (len(instance.plan.partitions), "count")
    metrics["planner.max_footprint_bytes"] = (max_footprint, "bytes")
    metrics["planner.peak_residual_bytes"] = (
        simulated.arena_peak_bytes - max_footprint, "bytes")

    traced_cu = statistics.median(traced.infer_cu)
    untraced_cu = statistics.median(untraced.infer_cu)
    metrics["trace.infer_p50_cu"] = (traced_cu, "cu")
    metrics["trace.untraced_infer_p50_cu"] = (untraced_cu, "cu")
    metrics["trace.overhead_cu"] = (traced_cu - untraced_cu, "cu")
    metrics["trace.cu_ms"] = (statistics.median(traced.probe) * 1e3, "ms")
    return metrics


def _print_metrics(workload: str, metrics: dict, context: dict | None = None) -> None:
    for name, (value, unit) in metrics.items():
        line = f"{workload:14s} {name:40s} {value:14.6g} {unit}"
        if unit == "cu" and context is not None:
            line += f"   ({context[name.replace('_cu', '_ms')]:.4g} ms)"
        print(line)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from calibrate import Probe
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise BenchmarkError(
            f"unknown workload {workload_name!r}, expected one of {', '.join(WORKLOADS)}")
    probe = Probe()
    set_ups = SetUps(WORKLOADS[workload_name], seed)
    if not trace:
        # set-ups spread over the run, so their median sees the machine the
        # measurements see
        samples = Samples()
        for repeat in range(1, SETUP_REPEATS + 1):
            instance = set_ups.next()
            measure(instance, probe, seconds / SETUP_REPEATS, samples,
                    math.ceil(MIN_INFERENCES * repeat / SETUP_REPEATS))
        if samples.failed == samples.attempted:
            print("every inference failed", file=sys.stderr)
            return 1
        metrics, context = end_to_end(samples, set_ups)
        _print_metrics(workload_name, metrics, context)
        print(f"{workload_name:14s} {'failed_ratio':40s} {context['failed_ratio']:14.6g} fraction")
        print(
            f"audit: {context['audits_flagged']} of {context['audits']} audits matched an "
            f"8-byte window of a secret, each only across a container header"
        )
        print("context " + json.dumps(context))
        attempted, failed = samples.attempted, samples.failed
    else:
        from spans import Tracer

        for _ in range(SETUP_REPEATS):
            instance = set_ups.next()
        untraced, traced = Samples(), Samples()
        measure(instance, probe, seconds * UNTRACED_SHARE, untraced, MIN_INFERENCES)
        tracer = Tracer()
        tracer.install()
        try:
            measure(instance, probe, seconds * (1 - UNTRACED_SHARE), traced, MIN_INFERENCES,
                    tracer)
        finally:
            tracer.uninstall()
        if untraced.failed == untraced.attempted or traced.failed == traced.attempted:
            print("every inference failed", file=sys.stderr)
            return 1
        metrics = per_layer(untraced, traced, tracer, instance, set_ups)
        _print_metrics(workload_name, metrics)
        print(
            f"tracing overhead: {metrics['trace.overhead_cu'][0]:.3f} cu per inference "
            f"(infer_p50 {metrics['trace.untraced_infer_p50_cu'][0]:.3f} cu untraced, "
            f"{metrics['trace.infer_p50_cu'][0]:.3f} cu traced)"
        )
        if tracer.absent:
            print("absent span targets: " + ", ".join(tracer.absent))
        if tracer.uncounted:
            print("spans whose work could not be counted: " + ", ".join(sorted(tracer.uncounted)))
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # one thread: numpy's BLAS pools must not start more
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        _import_library()
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
