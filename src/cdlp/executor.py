"""Partitioned execution over the simulated TEE.

Drives a PartitionPlan end to end: encrypted weight blobs are staged in
shared memory, decrypted into the arena one partition at a time, used,
and freed before the next partition loads. Activations that fit stay
resident in secure memory between partitions; a layer flagged for spill
has its inputs encrypted into shared memory by the producer and streamed
back chunk by chunk, paying the re-decryption cost the ledger records.

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
    PartitionPlan,
    render_manifest,
    validate_plan,
)
from .tee import (
    CostLedger,
    PartitionRecord,
    SecureArena,
    Session,
    SharedBuffer,
    TaintTag,
    TrustedApp,
    ledger_decrypt,
)
from .weights import partition_weights

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
    count: int
    offset: int  # container position in the shared buffer
    length: int  # container byte length


@dataclass
class SpilledActivations:
    """Encrypted activation chunks parked in a shared buffer."""

    buffer: SharedBuffer
    chunks: list[SpilledChunk] = field(default_factory=list)
    total_count: int = 0
    context: bytes = b""  # every chunk's associated data, before its index

    def chunk_context(self, index: int) -> bytes:
        return self.context + _INDEX.pack(index)


def spill_activations(
    output: Tensor | np.ndarray,
    chunk_size: int,
    key: bytes,
    buffer: SharedBuffer,
    arena: SecureArena,
    into: SpilledActivations | None = None,
) -> SpilledActivations:
    """Encrypt activations into the shared buffer in chunks.

    Each chunk briefly occupies arena space while it is encrypted; only
    its container (a public header, then the ciphertext tagged as such)
    ever reaches normal-world memory.
    Passing ``into`` appends to an existing spill set, which is how a
    layer split into subsets spills incrementally.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    values = output.data if isinstance(output, Tensor) else np.ascontiguousarray(output, FLOAT)
    spilled = into if into is not None else SpilledActivations(buffer)
    floats_per_chunk = max(1, chunk_size // FLOAT_BYTES)
    for lo in range(0, values.size, floats_per_chunk):
        hi = min(lo + floats_per_chunk, values.size)
        plain = values[lo:hi].tobytes()
        staging = arena.alloc(len(plain))
        try:
            index = len(spilled.chunks)
            chunk_id = index % 0x10000
            data = encrypt_partition(plain, key, chunk_id, spilled.chunk_context(index))
        finally:
            arena.free(staging)
        offset = buffer.append_container(data)
        spilled.chunks.append(
            SpilledChunk(chunk_id, spilled.total_count, hi - lo, offset, len(data))
        )
        spilled.total_count += hi - lo
    return spilled


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
class RunResult:
    output: Tensor
    ledger: CostLedger
    arena_peak: int
    shared: SharedBuffer


@dataclass
class ReferenceResult:
    output: Tensor
    wall_seconds: float


@dataclass
class CompareReport:
    bitwise_equal: bool
    max_abs_diff: float
    first_mismatch: int | None


class _Activations:
    """Tracks where the inter-layer activations currently live."""

    __slots__ = ("place", "values", "allocation", "shared_offset", "spilled")

    def __init__(self, values: np.ndarray):
        self.place = "public"
        self.values = values
        self.allocation = None
        self.shared_offset: int | None = None
        self.spilled: SpilledActivations | None = None


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
    next partition loads. The containers must have been sealed for this
    plan by ``prepare_partition_data``.
    """
    problems = validate_plan(plan, model, arena.capacity)
    if problems:
        raise PlanError("invalid plan: " + "; ".join(problems))
    if model.layers and input_tensor.dims != model.input_dims:
        raise DimensionError(
            f"input dims {input_tensor.dims} do not match model {model.input_dims}"
        )

    shared = SharedBuffer()
    app = TrustedApp(arena)
    session = Session(app)
    runner = _Runner(model, partition_data, plan, session, shared, key)

    acts = _Activations(input_tensor.data)
    # the client hands the inference input over through shared memory
    acts.shared_offset = shared.append(input_tensor.tobytes(), TaintTag.PUBLIC)
    try:
        for layer_index, group in itertools.groupby(
            plan.partitions, key=lambda p: p.layer_index
        ):
            runner.run_layer(layer_index, list(group), acts)
    finally:
        session.close()

    if acts.place == "spilled":
        raise PlanError("plan leaves the final activations spilled")
    out_dims = model.out_dims(len(model.layers) - 1) if model.layers else input_tensor.dims
    output = Tensor(out_dims, acts.values.copy())
    if acts.allocation is not None:
        arena.free(acts.allocation)
    return RunResult(output, app.ledger, arena.peak_usage, shared)


class _Runner:
    def __init__(self, model, partition_data, plan, session, shared, key):
        self.model = model
        self.partition_data = partition_data
        self.plan = plan
        self.session = session
        self.shared = shared
        self.key = key
        self.digest = plan_digest(plan)
        # binds this run's spill chunks to it: another run's do not verify
        self.run_nonce = os.urandom(RUN_NONCE_BYTES)

    def run_layer(self, layer_index: int, parts, acts: _Activations) -> None:
        if parts[0].world == WORLD_SECURE:
            self._run_secure_layer(layer_index, parts, acts)
        else:
            self._run_normal_layer(layer_index, parts, acts)

    # --- normal world ---

    def _run_normal_layer(self, layer_index, parts, acts):
        if acts.place != "public":
            raise PlanError(
                f"normal-world layer {layer_index} would read confidential activations"
            )
        x = Tensor(self.model.in_dims(layer_index), acts.values)
        pieces = [self._kernel(layer_index, p, x, self.partition_data[p.id]).data for p in parts]
        acts.values = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        acts.shared_offset = None

    # --- secure world ---

    def _run_secure_layer(self, layer_index, parts, acts):
        model = self.model
        arena = self.session.app.arena
        ledger = self.session.app.ledger
        out_elems = model.out_elems(layer_index)
        per_unit = model.output_units_per_row(layer_index)
        spill_in = layer_index in self.plan.spill
        spill_out = (layer_index + 1) in self.plan.spill

        if spill_in and acts.place != "spilled":
            raise PlanError(f"layer {layer_index} expects spilled inputs")
        if acts.place == "public" and acts.shared_offset is None:
            # normal-to-secure handoff: the extracted features cross through
            # shared memory in the clear, a documented boundary of branched
            # execution rather than a leak
            acts.shared_offset = self.shared.append(acts.values.tobytes(), TaintTag.PUBLIC)

        out = {"allocation": None, "buffer": None}
        out_spill = None
        if spill_out:
            spill_context = b"spill" + self.digest + self.run_nonce + _INDEX.pack(layer_index + 1)
            out_spill = SpilledActivations(self.shared, context=spill_context)
        context = weights_context(self.digest, layer_index)

        for p in parts:
            container_bytes = self.partition_data[p.id]
            offset = self.shared.append_container(container_bytes)

            def trusted_fn(app, buffers, p=p, offset=offset, length=len(container_bytes)):
                blob = ledger_decrypt(
                    app.arena, app.ledger, buffers[0].read(offset, length),
                    self.key, p.id, context,
                )
                try:
                    if out_spill is None and out["allocation"] is None:
                        out["allocation"] = app.arena.alloc(FLOAT_BYTES * out_elems)
                        out["buffer"] = np.zeros(out_elems, FLOAT)
                    if spill_in:
                        result = self._stream_kernel(layer_index, p, acts.spilled, blob.data, app)
                    else:
                        x = self._kernel_input(layer_index, acts, buffers[0])
                        result = self._kernel(layer_index, p, x, blob.data)
                    if out_spill is not None:
                        spill_activations(
                            result, SPILL_CHUNK_BYTES, self.key, buffers[0], app.arena, out_spill
                        )
                    else:
                        lo = p.start * per_unit
                        out["buffer"][lo : lo + result.size] = result.data
                finally:
                    blob.release(app.arena)

            arena.begin_window()
            decrypted_before = ledger.decrypted_bytes
            self.session.invoke(p.id, (self.shared,), trusted_fn)
            ledger.partition_records.append(
                PartitionRecord(
                    p.id, ledger.decrypted_bytes - decrypted_before, arena.window_peak
                )
            )

        if acts.allocation is not None:
            arena.free(acts.allocation)
        acts.allocation = None
        acts.shared_offset = None
        acts.spilled = None
        if spill_out:
            acts.place = "spilled"
            acts.values = None
            acts.spilled = out_spill
        else:
            acts.place = "secure"
            acts.values = out["buffer"]
            acts.allocation = out["allocation"]

    # --- kernels ---

    def _kernel_input(self, layer_index, acts, buffer) -> Tensor:
        in_dims = self.model.in_dims(layer_index)
        if acts.place == "public":
            # the trusted app reads public inputs straight from shared memory
            raw = buffer.read(acts.shared_offset, FLOAT_BYTES * acts.values.size)
            return Tensor(in_dims, np.frombuffer(raw, FLOAT))
        return Tensor(in_dims, acts.values)

    def _kernel(self, layer_index, p, x: Tensor, blob: bytes) -> Tensor:
        model = self.model
        rows = None
        if model.is_parameterized(layer_index):
            rows = partition_weights(model, layer_index, p.start, p.end, blob)
        return layer_forward(model, layer_index, x, rows, p.start)

    def _stream_kernel(self, layer_index, p, spilled, blob, app) -> Tensor:
        model = self.model
        rows = partition_weights(model, layer_index, p.start, p.end, blob)
        accumulator = DenseAccumulator(
            rows, model.layers[layer_index], p.start, model.units(layer_index),
            model.branch_groups(layer_index),
        )
        stream_spilled(spilled, self.key, app.arena, accumulator.feed, app.ledger)
        return accumulator.finish()


def prepare_partition_data(store: WeightStore, plan: PartitionPlan, key: bytes) -> dict[int, bytes]:
    """Split a weight store along the plan: encrypted containers for secure
    partitions, plaintext blobs for normal-world ones."""
    from .weights import split_weights

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
    """Bitwise and numeric comparison of two run outputs."""
    if a.dims != b.dims:
        raise DimensionError(f"cannot compare tensors of dims {a.dims} and {b.dims}")
    if a.data.tobytes() == b.data.tobytes():
        return CompareReport(True, 0.0, None)
    mismatches = np.nonzero(a.data.view("<u4") != b.data.view("<u4"))[0]
    diff = float(np.max(np.abs(a.data.astype(np.float64) - b.data.astype(np.float64))))
    return CompareReport(False, diff, int(mismatches[0]))
