"""Tensor construction: the checks and conversions every tensor goes through;
and every error a tensor, layer, weights or model spec raises, with its message."""

import numpy as np
import pytest

from cdlp.errors import DimensionError
from cdlp.model import (
    FLOAT, BranchTopology, LayerSpec, LayerWeights, ModelSpec, Tensor, WeightStore,
)
from cdlp.nn import reference_forward


@pytest.mark.parametrize("dims", [(), (2, -1), (-3,)], ids=["empty", "negative", "only-negative"])
def test_empty_or_negative_dims_raise(dims):
    with pytest.raises(DimensionError):
        Tensor(dims, np.zeros(0, np.float32))


@pytest.mark.parametrize("values", [5, 7, 0])
def test_a_size_that_does_not_match_the_dims_raises(values):
    with pytest.raises(DimensionError):
        Tensor((2, 3), np.zeros(values, np.float32))


def test_zero_sized_dims_hold_no_values():
    t = Tensor((0, 4), np.zeros(0, np.float32))
    assert t.dims == (0, 4) and t.size == 0


def test_dims_become_a_tuple_of_ints():
    t = Tensor([np.int64(2), 3], np.zeros(6, np.float32))
    assert t.dims == (2, 3)
    assert type(t.dims) is tuple and all(type(d) is int for d in t.dims)


@pytest.mark.parametrize(
    "values",
    [
        np.array([1.5, -2.0, 3.25]),  # float64
        np.array([1, -2, 3]),  # int64
        [1, -2, 3],  # a list of ints
        np.array([1.5, -2.0, 3.25], dtype=">f4"),  # float32, big-endian
    ],
    ids=["float64", "int64", "list", "big-endian"],
)
def test_other_inputs_come_back_as_float32(values):
    t = Tensor((3,), values)
    assert t.data.dtype == FLOAT and t.data.dtype.byteorder in "=<"
    assert t.data.tolist() == np.asarray(values, np.float32).tolist()


@pytest.mark.parametrize("order", ["C", "F"])
def test_a_2d_input_is_flattened_row_major(order):
    values = np.arange(6, dtype=np.float32).reshape(2, 3).copy(order=order)
    t = Tensor((2, 3), values)
    assert t.data.ndim == 1 and t.data.flags.c_contiguous
    assert t.data.tolist() == [0, 1, 2, 3, 4, 5]


def test_a_non_contiguous_input_is_copied():
    base = np.arange(12, dtype=np.float32)
    strided = base[::2]
    t = Tensor((6,), strided)
    assert t.data.flags.c_contiguous
    assert t.data.tolist() == [0, 2, 4, 6, 8, 10]
    assert not np.shares_memory(t.data, base)


def test_a_1d_contiguous_float32_array_is_kept():
    values = np.arange(6, dtype=np.float32)
    t = Tensor((1, 2, 3), values)
    assert np.shares_memory(t.data, values) and t.data.shape == (6,)
    assert t.as_map().shape == (1, 2, 3)


# --- layer and model specs: every error, with its exact message ---

CONV = dict(filters=2, kernel_size=3, stride=1, padding=0, activation="relu")
POOL = dict(size=2, stride=2)
FC = dict(outputs=4, activation="linear")


def _at_least_one(kind, fields, name, value):
    return (kind, {**fields, name: value}, f"{kind} {name} must be >= 1, got {value}")


LAYER_SPEC_ERRORS = [
    ("dense", FC, "unknown layer kind 'dense'"),
    *(_at_least_one(kind, fields, name, value)
      for kind, fields, names in [
          ("convolutional", CONV, ("filters", "kernel_size", "stride")),
          ("maxpool", POOL, ("size", "stride")),
          ("connected", FC, ("outputs",)),
      ]
      for name in names
      for value in (0, None)),
    ("convolutional", {**CONV, "padding": -1}, "convolutional padding must be >= 0"),
    ("convolutional", {**CONV, "activation": "tanh"},
     "convolutional activation must be one of ('linear', 'relu'), got 'tanh'"),
    ("connected", {**FC, "activation": "tanh"},
     "connected activation must be one of ('linear', 'relu'), got 'tanh'"),
]


@pytest.mark.parametrize(
    "kind, fields, message", LAYER_SPEC_ERRORS,
    ids=[f"{kind}-{'-'.join(f'{k}={v}' for k, v in fields.items())}"
         for kind, fields, _ in LAYER_SPEC_ERRORS],
)
def test_each_layer_spec_error_has_its_message(kind, fields, message):
    with pytest.raises(DimensionError) as err:
        LayerSpec(kind, **fields)
    assert str(err.value) == message


def test_a_branch_past_the_last_layer_raises():
    with pytest.raises(DimensionError) as err:
        ModelSpec([LayerSpec("connected", **FC)], (4, 1, 1), BranchTopology(1, 2))
    assert str(err.value) == "branch point lies past the last layer"


def test_branch_sizes_not_divisible_by_the_branch_count_raise():
    layers = [LayerSpec("connected", **FC), LayerSpec.connected(6), LayerSpec.connected(3)]
    with pytest.raises(DimensionError) as err:
        ModelSpec(layers, (4, 1, 1), BranchTopology(1, 2))
    assert str(err.value) == "layer 2 sizes 6->3 not divisible by 2 branches"


def test_a_flat_tensor_has_no_map_view():
    with pytest.raises(DimensionError) as err:
        Tensor((4,), np.zeros(4, np.float32)).as_map()
    assert str(err.value) == "expected 3-D tensor, got dims (4,)"


def test_a_negative_branch_index_raises():
    with pytest.raises(DimensionError) as err:
        BranchTopology(-1, 2)
    assert str(err.value) == "branch layer index must be >= 0"


@pytest.mark.parametrize(
    "weights, biases, message",
    [
        (np.zeros(4), np.zeros(4), "weight matrix must be 2-D, got (4,)"),
        (np.zeros((2, 3)), np.zeros(3), "3 biases for 2 weight rows"),
    ],
    ids=["1-d-weights", "bias-count"],
)
def test_each_layer_weights_error_has_its_message(weights, biases, message):
    with pytest.raises(DimensionError) as err:
        LayerWeights(weights, biases)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "layer, message",
    [
        (LayerSpec("convolutional", **CONV), "convolutional layer needs a 3-D input, got (4,)"),
        (LayerSpec("maxpool", **POOL), "maxpool layer needs a 3-D input, got (4,)"),
    ],
    ids=["conv", "maxpool"],
)
def test_a_map_layer_after_a_connected_layer_raises(layer, message):
    with pytest.raises(DimensionError) as err:
        ModelSpec([LayerSpec("connected", **FC), layer], (1, 4, 4))
    assert str(err.value) == message


@pytest.mark.parametrize("dims", [(0, 4, 4), (1, 4)], ids=["zero", "two-dims"])
def test_input_dims_must_be_three_positive_values(dims):
    with pytest.raises(DimensionError) as err:
        ModelSpec([LayerSpec("connected", **FC)], dims)
    assert str(err.value) == f"input dims must be 3 positive values, got {dims}"


def _weights(rows, cols):
    return LayerWeights(np.zeros((rows, cols)), np.zeros(rows))


FC_MODEL = ModelSpec([LayerSpec("connected", **FC)], (1, 4, 4))
POOL_MODEL = ModelSpec([LayerSpec("maxpool", **POOL)], (1, 4, 4))
WEIGHT_STORE_ERRORS = {
    "store-length": (FC_MODEL, [], "weight store has 0 layers, model has 1"),
    "weights-on-a-maxpool": (POOL_MODEL, [_weights(1, 1)], "layer 0 (maxpool) takes no weights"),
    "missing-weights": (FC_MODEL, [None], "layer 0 is missing weights"),
    "wrong-shape": (FC_MODEL, [_weights(2, 3)], "layer 0 weight shape (2, 3), expected (4, 16)"),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_STORE_ERRORS))
def test_each_weight_store_error_has_its_message(case):
    model, layers, message = WEIGHT_STORE_ERRORS[case]
    with pytest.raises(DimensionError) as err:
        reference_forward(model, WeightStore(layers), Tensor((1, 4, 4), np.zeros(16)))
    assert str(err.value) == message
