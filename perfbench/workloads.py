"""The benchmark's workloads and their set-up.

Each workload is a fixed model and plan. The seed only decides the weights and
the pool of inputs, so every simulated figure (switches, decrypted bytes,
modeled overhead, arena peak) depends on the plan alone and must read the same
for every seed.

* lenet-layered: the canonical 11-layer model, one secure partition per layer
  at 7 MiB. The paper's headline set-up; conv kernels and weight decryption do
  most of the work, and it is the only workload with weightless secure layers.
* spill-stream: 16 -> 2048 relu -> 64 linear, the second layer split into four
  subsets that each stream the spilled 2048 activations back from encrypted
  4 KiB chunks. No conv; DenseAccumulator.feed dominates, and it is the only
  workload that also encrypts (the spill) during an inference.
* branched: a conv/pool prefix and a 256-unit connected layer in the normal
  world, then two connected layers split four ways in the secure world. The
  only workload on the normal-world path, plaintext blobs and the grouped
  connected kernel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cdlp import (
    BranchTopology,
    LayerSpec,
    LayerWeights,
    ModelSpec,
    PartitionPlan,
    SecureArena,
    Tensor,
    WeightStore,
    ledger_overhead,
    load_canonical_model,
    plan_branched,
    plan_layered,
    plan_sublayer,
    prepare_partition_data,
    reference_forward,
    run_partitioned,
)
from cdlp.weights import split_weights

CAP = 7 * 2**20
KEY = bytes.fromhex("00112233445566778899aabbccddeeff")
POOL_SIZE = 8
WARMUP_INFERENCES = 2


@dataclass(frozen=True)
class Workload:
    build: Callable[[], ModelSpec]
    plan: Callable[[ModelSpec], PartitionPlan]


def _spill_model() -> ModelSpec:
    return ModelSpec(
        [LayerSpec.connected(2048, "relu"), LayerSpec.connected(64, "linear")], (16, 1, 1)
    )


def _branched_model() -> ModelSpec:
    return ModelSpec(
        [
            LayerSpec.convolutional(8, 3, 1, 1, activation="relu"),
            LayerSpec.maxpool(2, 2),
            LayerSpec.connected(256, "relu"),
            LayerSpec.connected(256, "relu"),
            LayerSpec.connected(64, "linear"),
        ],
        (3, 32, 32),
        BranchTopology(3, 4),
    )


WORKLOADS = {
    "lenet-layered": Workload(load_canonical_model, lambda m: plan_layered(m, CAP)),
    "spill-stream": Workload(
        _spill_model,
        lambda m: plan_sublayer(m, CAP, subset_size={0: 2048, 1: 16}).with_spill(1),
    ),
    "branched": Workload(_branched_model, lambda m: plan_branched(m, CAP)),
}


@dataclass(frozen=True)
class Simulated:
    """Figures of the simulated TEE; a pure function of the plan."""

    switches: int
    decrypted_bytes: int
    modeled_overhead_ms: float
    arena_peak_bytes: int

    @classmethod
    def of(cls, result) -> "Simulated":
        ledger = result.ledger
        return cls(
            ledger.context_switches,
            ledger.decrypted_bytes,
            ledger_overhead(ledger) * 1e3,
            result.arena_peak,
        )


@dataclass
class Instance:
    """Everything one measured loop needs, built by ``set_up``."""

    model: ModelSpec
    plan: PartitionPlan
    store: WeightStore
    partition_data: dict[int, bytes]
    inputs: list[Tensor]
    references: list[Tensor]
    secrets: list[list[bytes]]  # per input: the audit's secret set
    simulated: Simulated | None
    plan_s: float
    prepare_s: float

    def infer(self, index: int):
        return run_partitioned(
            self.model, self.partition_data, self.plan, self.inputs[index],
            SecureArena(CAP), KEY,
        )


def _random_weights(model: ModelSpec, rng: np.random.Generator) -> WeightStore:
    layers = []
    for i in range(len(model.layers)):
        shape = model.param_shape(i)
        if shape is None:
            layers.append(None)
            continue
        scale = math.sqrt(2.0 / shape[1])  # keeps activations O(1) through depth
        layers.append(
            LayerWeights(
                (rng.standard_normal(shape) * scale).astype(np.float32),
                (rng.standard_normal(shape[0]) * 0.1).astype(np.float32),
            )
        )
    return WeightStore(layers)


def _prefix_output(model: ModelSpec, store: WeightStore, layers: int, x: Tensor) -> bytes:
    """Reference activations after the first ``layers`` layers, as bytes."""
    branch = model.branch
    if branch is not None and branch.branch_layer_index >= layers:
        branch = None
    prefix = ModelSpec(model.layers[:layers], model.input_dims, branch)
    return reference_forward(prefix, WeightStore(store.layers[:layers]), x).tobytes()


def set_up(workload: Workload, rng: np.random.Generator) -> Instance:
    """Build model, weights, inputs and plan, encrypt, precompute, warm up."""
    model = workload.build()
    started = time.perf_counter()
    plan = workload.plan(model)
    plan_s = time.perf_counter() - started

    store = _random_weights(model, rng)
    inputs = [
        Tensor(model.input_dims, rng.standard_normal(math.prod(model.input_dims)))
        for _ in range(POOL_SIZE)
    ]
    started = time.perf_counter()
    partition_data = prepare_partition_data(store, plan, KEY)
    prepare_s = time.perf_counter() - started

    references = [reference_forward(model, store, x) for x in inputs]
    # the audit's secrets: every partition's plaintext weights and, for each
    # spilled layer j, the activations layer j-1 produced for this input
    weight_secrets = [blob for blob in split_weights(store, plan) if len(blob) >= 8]
    secrets = [
        weight_secrets + [_prefix_output(model, store, j, x) for j in sorted(plan.spill)]
        for x in inputs
    ]
    instance = Instance(
        model, plan, store, partition_data, inputs, references, secrets,
        simulated=None, plan_s=plan_s, prepare_s=prepare_s,
    )
    for index in range(WARMUP_INFERENCES):
        result = instance.infer(index)
    instance.simulated = Simulated.of(result)
    return instance
