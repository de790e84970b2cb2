"""Partitioned execution over the simulated TEE.

``run_partitioned`` is one loop over the plan's partitions in layer
order, and every partition takes the same step: parse its weight blob,
run its rows of the layer, and store them. The world decides where the
blob comes from and where inputs and outputs live. A normal-world
partition runs on its plaintext blob, reading and writing public
activations. A secure one runs inside a session invocation: its
container is staged in shared memory, decrypted into the arena, and
freed before the next partition loads. The run returns one
``PartitionTrace`` per partition, in plan order: the bytes it decrypted
and the arena peak it reached, next to the footprint the plan recorded.

Between layers the activations live in one of three places. Public ones
(the input, or a normal-world layer's outputs) cross to the secure world
through shared memory in the clear. A secure layer's outputs stay
resident in the arena until the next layer has run. If the next layer
is flagged for spill, the outputs are encrypted into shared memory
instead and streamed back chunk by chunk, paying the re-decryption cost
the ledger records.

Every container is bound to where it belongs (see ``container``): weights
to the plan digest and their layer, spill chunks also to the run, the
spilled layer and the chunk's index, so shared memory can swap, replay or
reorder containers only to make the run fail.

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
from typing import Callable, Mapping

import numpy as np

from .container import encrypt_partition
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
from .tee import (
    CostLedger,
    SecureArena,
    Session,
    SharedBuffer,
    TaintTag,
    ledger_decrypt,
)
from .weights import partition_weights, split_weights

RUN_NONCE_BYTES = 16
_INDEX = struct.Struct("<Q")


def plan_digest(plan: PartitionPlan) -> bytes:
    """SHA-256 of the plan's manifest, which every container's context holds."""
    return sha256(render_manifest(plan).encode()).digest()


def weights_context(digest: bytes, layer_index: int) -> bytes:
    """Associated data of a weight container of the plan with ``digest``."""
    return b"weights" + digest + _INDEX.pack(layer_index)


@dataclass
class SpilledChunk:
    chunk_id: int
    start: int  # first activation index held by this chunk
    offset: int  # container position in the shared buffer
    length: int  # container byte length


@dataclass
class SpilledActivations:
    """Encrypted activation chunks parked in a shared buffer."""

    buffer: SharedBuffer
    context: bytes  # every chunk's associated data, before its index
    chunks: list[SpilledChunk] = field(default_factory=list)
    total_count: int = 0

    def chunk_context(self, index: int) -> bytes:
        return self.context + _INDEX.pack(index)


def spill_activations(
    values: np.ndarray, key: bytes, arena: SecureArena, into: SpilledActivations
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
        hi = min(lo + floats_per_chunk, values.size)
        plain = values[lo:hi].tobytes()
        staging = arena.alloc(len(plain))
        try:
            index = len(into.chunks)
            chunk_id = index % 0x10000
            data = encrypt_partition(plain, key, chunk_id, into.chunk_context(index))
        finally:
            arena.free(staging)
        offset = into.buffer.append_container(data)
        into.chunks.append(SpilledChunk(chunk_id, into.total_count, offset, len(data)))
        into.total_count += hi - lo


def stream_spilled(
    spilled: SpilledActivations,
    key: bytes,
    arena: SecureArena,
    consumer: Callable[[np.ndarray, int], None],
    ledger: CostLedger,
) -> None:
    """Decrypt spill chunks one at a time into the arena and feed ``consumer``.

    Each chunk is verified, decrypted, consumed, and freed before the next
    loads, so one pass costs a single chunk of arena space and adds the
    full plaintext size to the decrypted-byte counter; p consumers paying
    p passes is exactly the re-decryption penalty of spilling. A tampered
    chunk aborts before the consumer sees any of it.
    """
    for index, chunk in enumerate(spilled.chunks):
        raw = spilled.buffer.read(chunk.offset, chunk.length)
        blob = ledger_decrypt(
            arena, ledger, raw, key, chunk.chunk_id, spilled.chunk_context(index)
        )
        try:
            consumer(np.frombuffer(blob.data, FLOAT), chunk.start)
        finally:
            blob.release(arena)


@dataclass
class PartitionTrace:
    """What one partition of a run cost; a normal-world one costs nothing."""

    partition: Partition
    decrypted_bytes: int = 0
    arena_peak: int = 0  # measured, against the plan's partition.footprint_bytes


@dataclass
class RunResult:
    output: Tensor
    ledger: CostLedger
    partitions: list[PartitionTrace]  # one per plan partition, in plan order
    shared: SharedBuffer

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
    next partition loads. The result traces every partition: the bytes it
    decrypted and its arena peak. The containers must have been sealed for this
    plan by ``prepare_partition_data``. Whether the run returns or raises,
    it frees all the arena memory it took.
    """
    problems = validate_plan(plan, model, arena.capacity)
    if problems:
        raise PlanError("invalid plan: " + "; ".join(problems))
    if model.layers and input_tensor.dims != model.input_dims:
        raise DimensionError(
            f"input dims {input_tensor.dims} do not match model {model.input_dims}"
        )

    shared = SharedBuffer()
    ledger = CostLedger()
    session = Session(ledger)
    digest = plan_digest(plan)
    # binds this run's spill chunks to it: another run's do not verify
    run_nonce = os.urandom(RUN_NONCE_BYTES)

    # The layer inputs are public ``values``, in shared memory at ``offset``
    # once the secure world is to read them; resident ``values``, charged to
    # the arena as ``held``; or ``spilled`` chunks. A layer writes its
    # outputs to ``out_values``, charged as ``out`` in the secure world, or,
    # when the next layer streams its inputs, to ``out_spill``.
    values = input_tensor.data
    # the client hands the inference input over through shared memory
    offset = shared.append(input_tensor.tobytes(), TaintTag.PUBLIC)
    held = spilled = out = out_values = out_spill = None
    traces = []

    def step(p, blob: bytes, secure: bool) -> None:
        """Run partition ``p`` on its plaintext weight blob and store its rows."""
        nonlocal out
        i = p.layer_index
        if secure and out_values is not None and out is None:
            out = arena.alloc(FLOAT_BYTES * out_values.size)  # by the layer's first subset
        if spilled is not None:
            accumulator = DenseAccumulator(
                partition_weights(model, i, p.start, p.end, blob), model.layers[i],
                p.start, model.units(i), model.branch_groups(i),
            )
            stream_spilled(spilled, key, arena, accumulator.feed, ledger)
            result = accumulator.finish()
        else:
            rows = None
            if model.is_parameterized(i):
                rows = partition_weights(model, i, p.start, p.end, blob)
            x = values
            if secure and held is None:
                # the trusted app reads public inputs straight from shared memory
                x = np.frombuffer(shared.read(offset, FLOAT_BYTES * values.size), FLOAT)
            result = layer_forward(model, i, Tensor(model.in_dims(i), x), rows, p.start)
        if out_spill is not None:
            spill_activations(result.data, key, arena, out_spill)
        else:
            lo = p.start * model.output_units_per_row(i)
            out_values[lo : lo + result.size] = result.data

    def trusted_step(p, staged: int, length: int) -> None:
        """The secure world's side of ``p``: decrypt its staged container and run it."""
        container = shared.read(staged, length)
        weights = ledger_decrypt(
            arena, ledger, container, key, p.id, weights_context(digest, p.layer_index)
        )
        try:
            step(p, weights.data, True)
        finally:
            weights.release(arena)

    try:
        for i, group in itertools.groupby(plan.partitions, key=lambda p: p.layer_index):
            parts = list(group)
            secure = parts[0].world == WORLD_SECURE
            if secure and held is None and spilled is None and offset is None:
                # normal-to-secure handoff: the extracted features cross through
                # shared memory in the clear, a documented boundary of branched
                # execution rather than a leak
                offset = shared.append(values.tobytes(), TaintTag.PUBLIC)

            out_values = out_spill = None
            if secure and i + 1 in plan.spill:
                context = b"spill" + digest + run_nonce + _INDEX.pack(i + 1)
                out_spill = SpilledActivations(shared, context=context)
            else:
                out_values = np.zeros(model.out_elems(i), FLOAT)
            for p in parts:
                blob = partition_data[p.id]
                if not secure:
                    step(p, blob, False)
                    traces.append(PartitionTrace(p))
                    continue
                staged = shared.append_container(blob)
                arena.reset_peak()
                decrypted_before = ledger.decrypted_bytes
                session.invoke(lambda: trusted_step(p, staged, len(blob)))
                traces.append(
                    PartitionTrace(p, ledger.decrypted_bytes - decrypted_before, arena.peak_usage)
                )

            if held is not None:
                arena.free(held)
            held, out = out, None
            values, offset, spilled = out_values, None, out_spill
    finally:
        for allocation in (held, out):
            if allocation is not None:
                arena.free(allocation)

    out_dims = model.out_dims(len(model.layers) - 1) if model.layers else input_tensor.dims
    return RunResult(Tensor(out_dims, values.copy()), ledger, traces, shared)


def prepare_partition_data(store: WeightStore, plan: PartitionPlan, key: bytes) -> dict[int, bytes]:
    """Split a weight store along the plan: encrypted containers for secure
    partitions, plaintext blobs for normal-world ones."""
    digest = plan_digest(plan)
    data = {}
    for p, blob in zip(plan.partitions, split_weights(store, plan)):
        if p.encrypted:
            blob = encrypt_partition(blob, key, p.id, weights_context(digest, p.layer_index))
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
