"""Partitioned execution over the simulated TEE.

``run_partitioned`` is one loop over the plan's partitions in layer
order, and every partition takes the same step: parse its weight blob,
run its rows of the layer, and store them. The world decides where the
blob comes from and where inputs and outputs live. A normal-world
partition runs on its plaintext blob, reading and writing public
activations. A secure one runs inside a session invocation: its
container is staged in shared memory, decrypted into the arena, and
freed before the next partition loads. The run returns one
``PartitionTrace`` per partition, in plan order. A trace is the ledger
its partition charges with its world switches and the bytes it
decrypted. It also holds the arena peak the partition reached, next to
the footprint the plan recorded, the spill chunks it read and wrote, and
the wall time of its phases. The run's ledger is the sum of its traces;
no other counter is kept.

What a run does once, it does once per run and keeps nothing across
runs: it validates the plan, digests the manifest and makes the AES-GCM
cipher and the weights context that open and seal every container of the
run. What a layer's partitions share is worked out once per layer: the
layer's geometry. A partition then costs its staging, its AES-GCM, its
weight views and its kernel. A layer run as one partition hands its
kernel's output tensor to the next layer as it is; the partitions of a
split layer are joined once, in plan order.

Between layers the activations live in one of three places. Public ones
(the input, or a normal-world layer's outputs) cross to the secure world
through shared memory in the clear. A secure layer's outputs stay
resident in the arena until the next layer has run. If the next layer
is flagged for spill, the outputs are encrypted into shared memory
instead and streamed back chunk by chunk, paying the re-decryption cost
that each consuming partition's trace records.

Every container is bound to its full index and to a context (see
``container``): a weights container to its partition id and the plan
digest, a spill chunk to its place in the spilled layer, the plan digest,
the run and the layer. So shared memory can swap, replay or reorder
containers only to make the run fail. Below the two entry points only the
cipher travels, never the raw key.

Every run is bitwise comparable to run_reference: the kernels fix their
accumulation order, and activations only ever move through lossless
float32 byte round trips.
"""

from __future__ import annotations

import itertools
import os
import struct
import time
from dataclasses import dataclass, field
from hashlib import sha256
from operator import attrgetter
from typing import Callable, Mapping

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .container import aead, encrypt_partition
from .errors import DimensionError, PlanError
from .model import FLOAT, FLOAT_BYTES, ModelSpec, Tensor, WeightStore
from .nn import DenseAccumulator, layer_forward, reference_forward
from .planner import (
    SPILL_CHUNK_BYTES,
    WORLD_SECURE,
    Partition,
    PartitionPlan,
    render_manifest,
    validate_plan,
)
from .tee import CostLedger, SecureArena, Session, SharedBuffer, TaintTag, ledger_decrypt
from .weights import partition_weights, split_weights

RUN_NONCE_BYTES = 16
_INDEX = struct.Struct("<Q")


def plan_digest(plan: PartitionPlan) -> bytes:
    """SHA-256 of the plan's manifest, which every container's context holds."""
    return sha256(render_manifest(plan).encode()).digest()


def weights_context(digest: bytes) -> bytes:
    """Associated data of every weight container of the plan with ``digest``."""
    return b"weights" + digest


@dataclass
class SpilledActivations:
    """Encrypted activation chunks parked in a shared buffer: chunk k is
    container k under ``context``."""

    buffer: SharedBuffer
    context: bytes
    chunks: list[tuple[int, int]] = field(default_factory=list)  # (offset, length) each


def spill_activations(
    values: np.ndarray, cipher: AESGCM, arena: SecureArena, into: SpilledActivations
) -> None:
    """Encrypt float32 ``values`` into ``into``'s shared buffer in
    SPILL_CHUNK_BYTES chunks, appending them to its chunk list; a layer split
    into subsets spills each subset's rows in turn.

    Each chunk briefly occupies arena space while it is encrypted; only
    its container (a public header, then the ciphertext tagged as such)
    ever reaches normal-world memory.
    """
    floats_per_chunk = SPILL_CHUNK_BYTES // FLOAT_BYTES
    for lo in range(0, values.size, floats_per_chunk):
        plain = values[lo : lo + floats_per_chunk].tobytes()
        staging = arena.alloc(len(plain))
        try:
            data = encrypt_partition(plain, cipher, len(into.chunks), into.context)
        finally:
            arena.free(staging)
        into.chunks.append((into.buffer.append_container(data), len(data)))


def stream_spilled(
    spilled: SpilledActivations,
    cipher: AESGCM,
    arena: SecureArena,
    consumer: Callable[[np.ndarray, int], None],
    ledger: CostLedger,
) -> float:
    """Decrypt spill chunks one at a time into the arena and feed each to
    ``consumer`` with the count of values fed before it; return the wall
    seconds spent verifying and decrypting them.

    Each chunk is verified, decrypted, consumed, and freed before the next
    loads, so one pass costs a single chunk of arena space and adds the
    full plaintext size to the decrypted-byte counter; p consumers paying
    p passes is exactly the re-decryption penalty of spilling. A tampered
    chunk aborts before the consumer sees any of it.
    """
    clock = time.perf_counter
    seconds = 0.0
    fed = 0
    for index, (offset, length) in enumerate(spilled.chunks):
        started = clock()
        raw = spilled.buffer.read(offset, length)
        blob = ledger_decrypt(arena, ledger, raw, cipher, index, spilled.context)
        seconds += clock() - started
        try:
            values = np.frombuffer(blob.data, FLOAT)
            consumer(values, fed)
            fed += values.size
        finally:
            arena.free(blob)
    return seconds


@dataclass
class PartitionTrace(CostLedger):
    """What one partition of a run cost, and where its wall time went.

    A trace is the ledger its partition charges: the partition's session
    charges it the two switches of its invocation, and each container the
    partition opens, its weights and every spill chunk it streams, charges
    it the plaintext bytes. So ``ledger_overhead`` prices a trace as it
    prices a run.

    The phases, in wall seconds: ``stage`` writes the partition's container
    to shared memory, with the public activations that cross to the secure
    world before it, if any; ``decrypt`` verifies and decrypts its weights
    and every spill chunk it streams; ``kernel`` computes its rows of the
    layer; ``spill`` encrypts those rows into shared memory when the next
    layer streams them. A normal-world partition has kernel time only, and
    decrypts nothing and switches no world.
    """

    partition: Partition = field(kw_only=True)
    arena_peak: int = 0  # measured, against the plan's partition.footprint_bytes
    spill_chunks_read: int = 0  # the spilled input's chunks it streamed back
    spill_chunks_written: int = 0  # the chunks its rows were spilled into
    stage_seconds: float = 0.0
    decrypt_seconds: float = 0.0
    kernel_seconds: float = 0.0
    spill_seconds: float = 0.0


@dataclass
class RunResult:
    output: Tensor
    partitions: list[PartitionTrace]  # one per plan partition, in plan order
    shared: SharedBuffer

    @property
    def ledger(self) -> CostLedger:
        """The run's counters: the sums of its partitions'."""
        return CostLedger(
            sum(t.context_switches for t in self.partitions),
            sum(t.decrypted_bytes for t in self.partitions),
        )

    @property
    def arena_peak(self) -> int:
        """The run's own arena peak: the largest of its partitions'."""
        return max((t.arena_peak for t in self.partitions), default=0)


@dataclass
class ReferenceResult:
    output: Tensor
    wall_seconds: float


@dataclass
class CompareReport:
    bitwise_equal: bool


def run_partitioned(
    model: ModelSpec,
    partition_data: Mapping[int, bytes],
    plan: PartitionPlan,
    input_tensor: Tensor,
    arena: SecureArena,
    key: bytes,
) -> RunResult:
    """Execute the plan; the output is bitwise equal to reference_forward.

    ``partition_data`` maps partition id to its encrypted container
    (secure world) or plaintext blob (normal world). Each secure partition
    costs one session invocation, and its weights are freed before the
    next partition loads. The result traces every partition: the switches
    and the bytes it was charged, its arena peak, its spill chunks and its
    phase times. The containers must have been sealed for this plan by
    ``prepare_partition_data``. Whether the run returns or raises, it frees
    all the arena memory it took.
    """
    problems = validate_plan(plan, model, arena.capacity)
    if problems:
        raise PlanError("invalid plan: " + "; ".join(problems))
    if model.layers and input_tensor.dims != model.input_dims:
        raise DimensionError(
            f"input dims {input_tensor.dims} do not match model {model.input_dims}"
        )

    cipher = aead(key)  # one key schedule opens and seals every container of the run
    shared = SharedBuffer()
    digest = plan_digest(plan)
    context = weights_context(digest)
    clock = time.perf_counter

    # A layer reads its input ``x`` as a public tensor (shared memory holds it
    # at ``offset`` once the secure world is to read it), as the producer's
    # resident output, charged to the arena as ``held``, or as ``spilled``
    # chunks. Its partitions leave their rows in ``outputs``, charged as
    # ``out`` in the secure world, or, when the next layer streams its
    # inputs, in ``out_spill``. The two closures below read the loop's
    # current layer (``i``, ``layer``, ``geometry``, ``weighted``, ``x``,
    # ``offset``) and partition (``p``, ``trace``, ``blob``, ``staged``).
    x = input_tensor
    # the client hands the inference input over through shared memory
    offset = shared.append(input_tensor.tobytes(), TaintTag.PUBLIC)
    held = spilled = out = None
    traces = []

    def compute(blob: bytes, inputs: Tensor) -> None:
        """Run partition ``p``'s rows of layer ``i`` on its plaintext weight blob
        and store them; ``inputs`` is the layer's input unless it is spilled."""
        rows = partition_weights(model, i, p.start, p.end, blob) if weighted else None
        started = clock()
        if spilled is None:
            result = layer_forward(model, i, inputs, rows, p.start)
        else:
            accumulator = DenseAccumulator(rows, layer, p.start, geometry.units, geometry.groups)
            decrypting = stream_spilled(spilled, cipher, arena, accumulator.feed, trace)
            result = accumulator.finish()
            trace.decrypt_seconds += decrypting
            trace.spill_chunks_read = len(spilled.chunks)
            started += decrypting
        computed = clock()
        trace.kernel_seconds = computed - started
        if out_spill is None:
            outputs.append(result)
        else:
            written = len(out_spill.chunks)
            spill_activations(result.data, cipher, arena, out_spill)
            trace.spill_chunks_written = len(out_spill.chunks) - written
            trace.spill_seconds = clock() - computed

    def open_and_compute() -> None:
        """The secure world's side of partition ``p``: open its staged
        container into the arena and compute its rows."""
        nonlocal out
        started = clock()
        weights = ledger_decrypt(arena, trace, shared.read(staged, len(blob)), cipher, p.id, context)
        trace.decrypt_seconds = clock() - started
        try:
            if out is None and outputs is not None:  # the layer's first subset
                out = arena.alloc(FLOAT_BYTES * geometry.out_elems)
            inputs = x
            if held is None and spilled is None:
                # the trusted app reads public inputs straight from shared memory
                data = shared.read(offset, FLOAT_BYTES * x.size)
                inputs = Tensor(x.dims, np.frombuffer(data, FLOAT))
            compute(weights.data, inputs)
        finally:
            arena.free(weights)

    try:
        for i, group in itertools.groupby(plan.partitions, key=attrgetter("layer_index")):
            parts = list(group)
            layer, geometry = model.layers[i], model.geometry[i]
            weighted = geometry.param_shape is not None
            outputs = out_spill = None
            secure = parts[0].world == WORLD_SECURE
            if i + 1 in plan.spill:
                out_spill = SpilledActivations(
                    shared, b"spill" + digest + os.urandom(RUN_NONCE_BYTES) + _INDEX.pack(i + 1)
                )
            else:
                outputs = []
            if secure:
                handoff = 0.0  # staging time of the public input, charged to the first partition
                if held is None and spilled is None and offset is None:
                    # normal-to-secure handoff: the extracted features cross
                    # through shared memory in the clear, a documented
                    # boundary of branched execution rather than a leak
                    started = clock()
                    offset = shared.append(x.tobytes(), TaintTag.PUBLIC)
                    handoff = clock() - started
            for p in parts:
                trace = PartitionTrace(partition=p)
                traces.append(trace)
                blob = partition_data[p.id]
                if not secure:
                    compute(blob, x)
                    continue
                started = clock()
                staged = shared.append_container(blob)
                trace.stage_seconds = clock() - started + handoff
                handoff = 0.0
                arena.reset_peak()
                Session(trace).invoke(open_and_compute)
                trace.arena_peak = arena.peak_usage

            if held is not None:
                arena.free(held)
            held, out = out, None
            if outputs is not None:  # the layer's rows, in plan order
                x = outputs[0] if len(outputs) == 1 else Tensor(
                    geometry.out_dims, np.concatenate([r.data for r in outputs])
                )
            offset, spilled = None, out_spill
    finally:
        for allocation in (held, out):
            if allocation is not None:
                arena.free(allocation)

    return RunResult(Tensor(x.dims, x.data.copy()), traces, shared)


def prepare_partition_data(store: WeightStore, plan: PartitionPlan, key: bytes) -> dict[int, bytes]:
    """Split a weight store along the plan: encrypted containers for secure
    partitions, plaintext blobs for normal-world ones."""
    cipher = aead(key)
    context = weights_context(plan_digest(plan))
    data = {}
    for p, blob in zip(plan.partitions, split_weights(store, plan)):
        if p.encrypted:
            blob = encrypt_partition(blob, cipher, p.id, context)
        data[p.id] = blob
    return data


def run_reference(model: ModelSpec, weights: WeightStore, x: Tensor) -> ReferenceResult:
    """Plain whole-model forward pass with wall time: the baseline comparator."""
    started = time.perf_counter()
    output = reference_forward(model, weights, x)
    return ReferenceResult(output, time.perf_counter() - started)


def compare_runs(a: Tensor, b: Tensor) -> CompareReport:
    """Bitwise comparison of two run outputs."""
    if a.dims != b.dims:
        raise DimensionError(f"cannot compare tensors of dims {a.dims} and {b.dims}")
    return CompareReport(a.data.tobytes() == b.data.tobytes())
