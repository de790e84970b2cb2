"""Domain types: tensors, layer descriptors, network specs, weight stores."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

# Each layer kind's fields, in config order; LayerSpec checks them in this order.
LAYER_FIELDS = {
    "convolutional": ("filters", "kernel_size", "stride", "padding", "activation"),
    "maxpool": ("size", "stride"),
    "connected": ("outputs", "activation"),
    "softmax": (),
}
ACTIVATIONS = ("linear", "relu")

FLOAT = np.dtype("<f4")
FLOAT_BYTES = 4

# How a LayerWeights holds its weight matrix in memory, and so how a partition
# blob writes it: column by column, or row by row; each with its numpy order.
LAYOUT_COLUMNS = "columns"
LAYOUT_ROWS = "rows"
LAYOUT_ORDERS = {LAYOUT_COLUMNS: "F", LAYOUT_ROWS: "C"}


def _flat_floats(values) -> np.ndarray:
    """``values`` as a 1-D contiguous float32 array: the array itself if it
    is one already, as every kernel's output is, else a converted copy or view."""
    if (type(values) is np.ndarray and values.ndim == 1 and values.dtype == FLOAT
            and values.flags.c_contiguous):
        return values
    return np.ascontiguousarray(values, dtype=FLOAT).reshape(-1)


@dataclass
class Tensor:
    """Flat row-major float32 buffer with a shape attached.

    ``dims`` is either (channels, height, width) for feature maps or a
    single flat length for vectors. ``data`` always stays 1-D float32.
    """

    dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.dims = dims = tuple(map(int, self.dims))
        if not dims or min(dims) < 0:
            raise DimensionError(f"bad tensor dims {dims}")
        arr = _flat_floats(self.data)
        if arr.size != math.prod(dims):
            raise DimensionError(
                f"tensor dims {dims} need {math.prod(dims)} values, got {arr.size}"
            )
        self.data = arr

    @property
    def size(self) -> int:
        return self.data.size

    def as_map(self) -> np.ndarray:
        """View as (channels, height, width); requires 3-D dims."""
        if len(self.dims) != 3:
            raise DimensionError(f"expected 3-D tensor, got dims {self.dims}")
        return self.data.reshape(self.dims)

    def tobytes(self) -> bytes:
        return self.data.tobytes()


@dataclass
class LayerSpec:
    """One layer of the network; the meaningful fields depend on ``kind``."""

    kind: str
    filters: int | None = None
    kernel_size: int | None = None
    stride: int | None = None
    padding: int | None = None
    activation: str | None = None
    size: int | None = None
    outputs: int | None = None

    def __post_init__(self):
        if self.kind not in LAYER_FIELDS:
            raise DimensionError(f"unknown layer kind {self.kind!r}")
        for name in LAYER_FIELDS[self.kind]:
            value = getattr(self, name)
            if name == "activation":
                if value not in ACTIVATIONS:
                    raise DimensionError(
                        f"{self.kind} activation must be one of {ACTIVATIONS}, got {value!r}"
                    )
            elif name == "padding":
                if value is None or value < 0:
                    raise DimensionError("convolutional padding must be >= 0")
            elif value is None or value < 1:
                raise DimensionError(f"{self.kind} {name} must be >= 1, got {value}")

    @classmethod
    def convolutional(cls, filters, kernel_size, stride=1, padding=0, activation="linear"):
        return cls("convolutional", filters=filters, kernel_size=kernel_size,
                   stride=stride, padding=padding, activation=activation)

    @classmethod
    def maxpool(cls, size, stride):
        return cls("maxpool", size=size, stride=stride)

    @classmethod
    def connected(cls, outputs, activation="linear"):
        return cls("connected", outputs=outputs, activation=activation)

    @classmethod
    def softmax(cls):
        return cls("softmax")


@dataclass
class BranchTopology:
    """Split point after which connected layers form independent groups.

    Neuron i of group g connects only to previous-layer neurons of group g,
    so group weights are stored without the (nonexistent) cross-group rows.
    """

    branch_layer_index: int
    branch_count: int

    def __post_init__(self):
        if self.branch_layer_index < 0:
            raise DimensionError("branch layer index must be >= 0")
        if self.branch_count < 2:
            raise DimensionError(f"branch count must be >= 2, got {self.branch_count}")


@dataclass
class LayerWeights:
    """Weight matrix plus bias vector for one layer.

    Rows are output neurons (connected) or filters (convolutional). For a
    branched connected layer the row length is the per-group input count.
    Weights are stored in ``layout``: column-major by default, as a weight
    store holds them, so a kernel's block of columns is contiguous (see
    ``nn``), or row-major, as a thin connected partition's blob holds them.
    Weights already in that layout are kept as they are, so a view of a blob
    stays a view; ``tobytes()`` writes row-major order in either layout.
    """

    weights: np.ndarray
    biases: np.ndarray
    layout: str = LAYOUT_COLUMNS

    def __post_init__(self):
        order = LAYOUT_ORDERS.get(self.layout)
        if order is None:
            raise DimensionError(f"unknown weight layout {self.layout!r}")
        self.weights = np.asarray(self.weights, FLOAT, order=order)
        self.biases = _flat_floats(self.biases)
        if self.weights.ndim != 2:
            raise DimensionError(f"weight matrix must be 2-D, got {self.weights.shape}")
        if self.biases.size != self.weights.shape[0]:
            raise DimensionError(
                f"{self.biases.size} biases for {self.weights.shape[0]} weight rows"
            )

    @property
    def rows(self) -> int:
        return self.weights.shape[0]


def output_dims(layer: LayerSpec, in_dims: tuple[int, ...]) -> tuple[int, ...]:
    """Output dims of ``layer`` applied to ``in_dims``; raises on bad geometry."""
    if layer.kind == "convolutional":
        if len(in_dims) != 3:
            raise DimensionError(f"convolutional layer needs a 3-D input, got {in_dims}")
        c, h, w = in_dims
        k, s, p = layer.kernel_size, layer.stride, layer.padding
        if h + 2 * p < k or w + 2 * p < k:
            raise DimensionError(f"kernel {k} does not fit {h}x{w} input with padding {p}")
        return (layer.filters, (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1)
    if layer.kind == "maxpool":
        if len(in_dims) != 3:
            raise DimensionError(f"maxpool layer needs a 3-D input, got {in_dims}")
        c, h, w = in_dims
        k, s = layer.size, layer.stride
        for side in (h, w):
            if side < k or (side - k) % s != 0:
                raise DimensionError(
                    f"pool window {k} stride {s} does not divide {h}x{w} input"
                )
        return (c, (h - k) // s + 1, (w - k) // s + 1)
    if layer.kind == "connected":
        return (layer.outputs,)
    # softmax flattens
    return (math.prod(in_dims),)


class LayerGeometry(NamedTuple):
    """One layer's shapes within its model, worked out once per model."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    in_elems: int
    out_elems: int
    units: int  # partitionable output units: neurons, filters, or output elements
    out_per_unit: int  # output elements per unit: 1, or a filter's map size
    groups: int  # independent branch groups: the branch count at/after the split, else 1
    param_shape: tuple[int, int] | None  # (rows, cols) of the weight matrix


@dataclass
class ModelSpec:
    """Parsed network: ordered layers, input dims, optional branch topology.

    Every layer's geometry is worked out once, in one pass, when the spec is
    made: ``geometry[i]`` holds layer i's shapes, and the planner, the
    executor and ``nn`` read it there.
    """

    layers: list[LayerSpec]
    input_dims: tuple[int, int, int]
    branch: BranchTopology | None = None
    geometry: list[LayerGeometry] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.input_dims = tuple(int(d) for d in self.input_dims)
        if len(self.input_dims) != 3 or any(d < 1 for d in self.input_dims):
            raise DimensionError(f"input dims must be 3 positive values, got {self.input_dims}")
        self.geometry = []
        dims: tuple[int, ...] = self.input_dims
        for i, layer in enumerate(self.layers):
            out = output_dims(layer, dims)
            self.geometry.append(self._layer_geometry(i, dims, out))
            dims = out
        self._validate_branch()

    def _validate_branch(self):
        b = self.branch
        if b is None:
            return
        if b.branch_layer_index >= len(self.layers):
            raise DimensionError("branch point lies past the last layer")
        for j in range(b.branch_layer_index, len(self.layers)):
            layer = self.layers[j]
            if layer.kind != "connected":
                raise DimensionError(
                    f"layer {j} ({layer.kind}) after the branch point; "
                    "branched segments support connected layers only"
                )
            in_elems = self.geometry[j].in_elems
            if in_elems % b.branch_count or layer.outputs % b.branch_count:
                raise DimensionError(
                    f"layer {j} sizes {in_elems}->{layer.outputs} "
                    f"not divisible by {b.branch_count} branches"
                )

    def _layer_geometry(self, i: int, in_dims, out_dims) -> LayerGeometry:
        layer = self.layers[i]
        in_elems, out_elems = math.prod(in_dims), math.prod(out_dims)
        groups = 1
        if self.branch is not None and i >= self.branch.branch_layer_index:
            groups = self.branch.branch_count
        units, out_per_unit, param_shape = out_elems, 1, None
        if layer.kind == "connected":
            units, param_shape = layer.outputs, (layer.outputs, in_elems // groups)
        elif layer.kind == "convolutional":
            units, out_per_unit = layer.filters, out_dims[1] * out_dims[2]
            param_shape = (layer.filters, in_dims[0] * layer.kernel_size * layer.kernel_size)
        return LayerGeometry(
            in_dims, out_dims, in_elems, out_elems, units, out_per_unit, groups, param_shape
        )

    def is_parameterized(self, i: int) -> bool:
        return self.geometry[i].param_shape is not None

    def units(self, i: int) -> int:
        """Partitionable output units: neurons, filters, or output elements."""
        return self.geometry[i].units

    def param_shape(self, i: int) -> tuple[int, int] | None:
        """Weight matrix shape (rows, cols) for layer i, or None if weightless."""
        return self.geometry[i].param_shape


@dataclass
class WeightStore:
    """Per-layer weights in layer order; None for weightless layers."""

    layers: list[LayerWeights | None]


def validate_weights(model: ModelSpec, store: WeightStore) -> None:
    """Raise DimensionError unless the store's shapes match the model."""
    if len(store.layers) != len(model.layers):
        raise DimensionError(
            f"weight store has {len(store.layers)} layers, model has {len(model.layers)}"
        )
    for i in range(len(model.layers)):
        expected = model.param_shape(i)
        lw = store.layers[i]
        if expected is None:
            if lw is not None:
                raise DimensionError(f"layer {i} ({model.layers[i].kind}) takes no weights")
            continue
        if lw is None:
            raise DimensionError(f"layer {i} is missing weights")
        if lw.weights.shape != expected:
            raise DimensionError(
                f"layer {i} weight shape {lw.weights.shape}, expected {expected}"
            )
