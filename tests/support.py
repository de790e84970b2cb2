"""Shared helpers: seeded model/weight generators for the test suite, the
inverses of config parsing and weight splitting that the round-trip tests
check against, and a loader for the tool files the tests exercise."""

from __future__ import annotations

import importlib.util
import math
import sys
from types import ModuleType
from typing import Mapping

import numpy as np

from cdlp.model import (
    FLOAT,
    LAYER_FIELDS,
    BranchTopology,
    LayerSpec,
    LayerWeights,
    ModelSpec,
    Tensor,
    WeightStore,
)
from cdlp.nn import layer_forward
from cdlp.weights import partition_weights


def load_module(path, name: str) -> ModuleType:
    """Load a file outside the package, such as a tool, as module ``name``.
    The module is registered in ``sys.modules``, where dataclasses look their
    module up by name."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def random_tensor(rng: np.random.Generator, dims) -> Tensor:
    return Tensor(tuple(dims), rng.standard_normal(math.prod(dims)).astype(np.float32))


def random_weight_store(model: ModelSpec, rng: np.random.Generator) -> WeightStore:
    layers = []
    for i in range(len(model.layers)):
        shape = model.param_shape(i)
        if shape is None:
            layers.append(None)
            continue
        layers.append(
            LayerWeights(
                (rng.standard_normal(shape) * 0.5).astype(np.float32),
                (rng.standard_normal(shape[0]) * 0.5).astype(np.float32),
            )
        )
    return WeightStore(layers)


def random_model(rng: np.random.Generator) -> ModelSpec:
    """Small branched model: optional conv/pool prefix, connected tail.

    Bounded to 6 layers and 64 output units per layer; every connected
    size is a multiple of the branch count so all three partitioning
    schemes apply to the same model.
    """
    k = int(rng.choice([2, 4]))
    channels = int(rng.choice([1, 2]))
    side = int(rng.choice([4, 6, 8]))
    layers: list[LayerSpec] = []
    dims = (channels, side, side)

    for _ in range(int(rng.integers(0, 3))):
        if len(layers) >= 4:
            break
        c, h, w = dims
        options = []
        max_filters = min(4, 64 // (h * w)) if h * w <= 64 else 0
        if max_filters >= 1 and h >= 3 and w >= 3:
            options.append("conv")
        if h >= 4 and h % 2 == 0 and w % 2 == 0:
            options.append("pool")
        if not options:
            break
        pick = options[int(rng.integers(len(options)))]
        if pick == "conv":
            f = int(rng.integers(1, max_filters + 1))
            layers.append(LayerSpec.convolutional(f, 3, 1, 1, activation="relu"))
            dims = (f, h, w)
        else:
            layers.append(LayerSpec.maxpool(2, 2))
            dims = (c, h // 2, w // 2)

    def connected_size() -> int:
        return int(rng.integers(1, 64 // k + 1)) * k

    def activation() -> str:
        return str(rng.choice(["relu", "linear"]))

    layers.append(LayerSpec.connected(connected_size(), activation()))
    branch_at = len(layers)
    for _ in range(int(rng.integers(1, min(3, 6 - len(layers)) + 1))):
        layers.append(LayerSpec.connected(connected_size(), activation()))
    return ModelSpec(layers, (channels, side, side), BranchTopology(branch_at, k))


def random_case(seed: int) -> tuple[ModelSpec, WeightStore, Tensor]:
    rng = np.random.default_rng(seed)
    model = random_model(rng)
    return model, random_weight_store(model, rng), random_tensor(rng, model.input_dims)


def spilled_secrets(model: ModelSpec, store: WeightStore, plan, x: Tensor) -> list[bytes]:
    """The plaintext a run spills: for each spill-flagged layer j, the
    reference activations of layer j-1 for input ``x``."""
    secrets = []
    for i in range(max(plan.spill, default=0)):
        x = layer_forward(model, i, x, store.layers[i])
        if i + 1 in plan.spill:
            secrets.append(x.tobytes())
    return secrets


def render_config(model: ModelSpec) -> str:
    """Regenerate canonical configuration text; parse(render(m)) == m."""
    lines = [
        "[net]",
        f"channels={model.input_dims[0]}",
        f"height={model.input_dims[1]}",
        f"width={model.input_dims[2]}",
    ]
    for i, layer in enumerate(model.layers):
        if model.branch is not None and model.branch.branch_layer_index == i:
            lines += ["", "[branch]", f"branches={model.branch.branch_count}"]
        lines += ["", f"[{layer.kind}]"]
        for key in LAYER_FIELDS[layer.kind]:
            lines.append(f"{key}={getattr(layer, key)}")
    return "\n".join(lines) + "\n"


def merge_blobs(model: ModelSpec, plan, blobs: Mapping[int, bytes]) -> WeightStore:
    """Reassemble a full WeightStore from per-partition blobs (id -> blob)."""
    layers: list[LayerWeights | None] = []
    for i in range(len(model.layers)):
        shape = model.param_shape(i)
        if shape is None:
            layers.append(None)
        else:
            layers.append(LayerWeights(np.zeros(shape, FLOAT), np.zeros(shape[0], FLOAT)))
    for p in plan.partitions:
        if not model.is_parameterized(p.layer_index):
            continue
        lw = partition_weights(model, p.layer_index, p.start, p.end, blobs[p.id])
        target = layers[p.layer_index]
        target.biases[p.start : p.end] = lw.biases
        target.weights[p.start : p.end] = lw.weights
    return WeightStore(layers)
